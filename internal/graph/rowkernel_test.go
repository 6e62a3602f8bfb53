package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// rowKernelGraph builds a connected graph on n vertices: a random spanning
// tree plus up to extra further edges, every weight drawn from weight.
func rowKernelGraph(t testing.TB, r *rand.Rand, n, extra int, weight func() float64) *Graph {
	t.Helper()
	b := NewBuilder(n)
	seen := make(map[[2]Vertex]bool)
	add := func(u, v Vertex) {
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]Vertex{u, v}] {
			return
		}
		seen[[2]Vertex{u, v}] = true
		b.AddEdge(u, v, weight())
	}
	for v := 1; v < n; v++ {
		add(Vertex(r.Intn(v)), Vertex(v))
	}
	for i := 0; i < extra; i++ {
		add(Vertex(r.Intn(n)), Vertex(r.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// compareRowKernels runs dijkstraInto (the radix pass with its absorbed-
// weight fallback) and the (dist, id)-order heap loop from every source of g,
// with and without a caller parent slice, and fails on the first row that
// differs in any bit. It returns how many rows the radix pass handed to the
// fallback.
func compareRowKernels(t testing.TB, g *Graph) (fallbacks int) {
	t.Helper()
	n := g.N()
	wantD, gotD := make([]float64, n), make([]float64, n)
	wantP, gotP := make([]Vertex, n), make([]Vertex, n)
	wantF, gotF := make([]Vertex, n), make([]Vertex, n)
	ws := g.AcquireWorkspace()
	defer g.ReleaseWorkspace(ws)
	for s := 0; s < n; s++ {
		src := Vertex(s)
		initRow(src, wantD, wantP, wantF)
		g.dijkstraHeapInto(ws, src, wantD, wantP, wantF)

		initRow(src, gotD, nil, gotF)
		if !g.radixInto(ws, src, gotD, nil, gotF) {
			fallbacks++
		}
		for _, parent := range [][]Vertex{nil, gotP} {
			initRow(src, gotD, parent, gotF)
			g.dijkstraInto(ws, src, gotD, parent, gotF)
			for v := 0; v < n; v++ {
				if math.Float64bits(gotD[v]) != math.Float64bits(wantD[v]) || gotF[v] != wantF[v] ||
					(parent != nil && gotP[v] != wantP[v]) {
					t.Fatalf("n=%d src %d vertex %d (parent slice %v): got dist %v first %d parent %d, heap order gives dist %v first %d parent %d",
						n, s, v, parent != nil, gotD[v], gotF[v], gotP[v], wantD[v], wantF[v], wantP[v])
				}
			}
		}
	}
	return fallbacks
}

// TestDeterminismRowKernelMatchesHeapOrder pins the contract of the full-row
// weighted search: the radix-queue kernel behind ShortestPaths, AllPairs and
// LazyAPSP rows produces exactly the distances, parents and first hops of a
// (dist, id)-order search, on every source of seeded random graphs. The
// weight kinds cover tie-heavy unit and small-integer weights, fractional
// weights whose sums round, tie-free reals, and weights absorbed by rounding
// (1e-300 next to 1-3), the one case the radix pass cannot order and must
// hand to the heap loop.
func TestDeterminismRowKernelMatchesHeapOrder(t *testing.T) {
	kinds := []struct {
		name   string
		weight func(r *rand.Rand) float64
	}{
		{"unit", func(*rand.Rand) float64 { return 1 }},
		{"int1-32", func(r *rand.Rand) float64 { return float64(1 + r.Intn(32)) }},
		{"tenths", func(r *rand.Rand) float64 { return 0.1 * float64(1+r.Intn(30)) }},
		{"real", func(r *rand.Rand) float64 { return 1e-3 + r.Float64() }},
		{"absorbing", func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return 1e-300
			}
			return float64(1 + r.Intn(3))
		}},
	}
	for ki, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			rows, fallbacks := 0, 0
			for seed, n := range []int{1, 2, 7, 33, 120, 250} {
				r := rand.New(rand.NewSource(int64(100*ki + seed)))
				g := rowKernelGraph(t, r, n, 2*n, func() float64 { return kind.weight(r) })
				fallbacks += compareRowKernels(t, g)
				rows += n
			}
			if kind.name == "absorbing" && fallbacks == 0 {
				t.Fatalf("no absorbing-weight row reached the heap fallback; the test no longer exercises it")
			}
			if kind.name != "absorbing" && fallbacks != 0 {
				t.Fatalf("%d of %d rows fell back to the heap without an absorbed weight", fallbacks, rows)
			}
		})
	}
}

// FuzzRowKernel compares the radix-queue kernel with the (dist, id)-order
// heap loop on small graphs with fuzzer-chosen weights. Every edge takes four
// bytes: two endpoints, a mantissa and a signed exponent step of 9 binary
// orders, so weights run from subnormals through ratios near 2^2000 to
// +Inf. Self loops and duplicate edges are dropped; a weight that underflows
// to 0 makes Build reject the graph.
func FuzzRowKernel(f *testing.F) {
	f.Add([]byte{4, 0, 1, 0, 0, 1, 2, 0, 0, 2, 3, 0, 0, 0, 3, 0, 0})
	f.Add([]byte{5, 0, 1, 0, 0, 1, 2, 7, 0x90, 0, 2, 0, 0, 2, 3, 0, 0, 3, 4, 1, 0x8a})
	f.Add([]byte{1, 0, 1, 0, 127}) // one edge of weight +Inf
	f.Add([]byte{6, 0, 1, 255, 112, 1, 2, 3, 0x88, 0, 3, 9, 0, 3, 4, 0, 0x80, 4, 5, 1, 113, 2, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%16)
		data = data[1:]
		b := NewBuilder(n)
		seen := make(map[[2]Vertex]bool)
		for ; len(data) >= 4; data = data[4:] {
			u, v := Vertex(int(data[0])%n), Vertex(int(data[1])%n)
			if u > v {
				u, v = v, u
			}
			if u == v || seen[[2]Vertex{u, v}] {
				continue
			}
			seen[[2]Vertex{u, v}] = true
			b.AddEdge(u, v, math.Ldexp(1+float64(data[2])/256, 9*int(int8(data[3]))))
		}
		g, err := b.Build()
		if err != nil {
			return
		}
		compareRowKernels(t, g)
	})
}

// TestRadixQueuePopsInKeyOrder checks the queue on its own: under the
// monotone contract (pushes never go below the last popped key) every pop
// returns the minimum of what is queued, and the popped multiset is the
// pushed one.
func TestRadixQueuePopsInKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var q radixQueue
	for trial := 0; trial < 50; trial++ {
		q.reset()
		var queued []uint64
		var last uint64
		for step := 0; step < 400; step++ {
			if len(queued) == 0 || r.Intn(3) > 0 {
				// Coarse offsets force equal keys; occasional jumps halfway
				// to the top of the key range reach the high buckets.
				k := last + uint64(r.Intn(8))
				if r.Intn(20) == 0 {
					k = last + (math.MaxUint64-last)/2
				}
				q.push(k, Vertex(step))
				queued = append(queued, k)
				continue
			}
			sort.Slice(queued, func(i, j int) bool { return queued[i] < queued[j] })
			k, _ := q.pop()
			if k != queued[0] {
				t.Fatalf("trial %d step %d: pop = %d, want minimum %d", trial, step, k, queued[0])
			}
			queued, last = queued[1:], k
		}
		if q.len() != len(queued) {
			t.Fatalf("trial %d: len = %d, want %d", trial, q.len(), len(queued))
		}
	}
}
