package vicinity_test

import (
	"math"
	"sort"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/testutil"
	"compactroute/internal/vicinity"
)

func buildAll(t *testing.T, g *graph.Graph, l int) []*vicinity.Set {
	t.Helper()
	sets, err := vicinity.BuildAll(g, l)
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	return sets
}

func TestVicinityMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := testutil.MustGNM(t, 35, 90, seed, gen.UniformInt)
		want := testutil.FloydWarshall(g)
		for _, l := range []int{1, 4, 9, 35} {
			sets := buildAll(t, g, l)
			for u := 0; u < g.N(); u++ {
				type pair struct {
					d float64
					v int
				}
				var all []pair
				for v := 0; v < g.N(); v++ {
					all = append(all, pair{want[u][v], v})
				}
				sort.Slice(all, func(i, j int) bool {
					if all[i].d != all[j].d {
						return all[i].d < all[j].d
					}
					return all[i].v < all[j].v
				})
				s := sets[u]
				if s.Size() != min(l, g.N()) {
					t.Fatalf("B(%d,%d) has size %d", u, l, s.Size())
				}
				for i, m := range s.Members() {
					if int(m.V) != all[i].v || math.Abs(m.Dist-all[i].d) > testutil.Eps {
						t.Fatalf("B(%d,%d)[%d] = (%d,%v), want (%d,%v)", u, l, i, m.V, m.Dist, all[i].v, all[i].d)
					}
				}
			}
		}
	}
}

// TestProperty1 checks the fundamental vicinity property (Property 1 of the
// paper): if v is in B(u, l) and w is on a shortest path between u and v,
// then v is in B(w, l). The first-hop tables of Lemma 2 rely on it.
func TestProperty1(t *testing.T) {
	for _, wt := range []gen.Weighting{gen.Unit, gen.UniformInt} {
		g := testutil.MustGNM(t, 40, 110, 5, wt)
		a := graph.AllPairs(g)
		l := 8
		sets := buildAll(t, g, l)
		for u := 0; u < g.N(); u++ {
			for _, m := range sets[u].Members() {
				path := a.Path(graph.Vertex(u), m.V)
				for _, w := range path {
					if !sets[w].Contains(m.V) {
						t.Fatalf("property 1 violated: %d in B(%d,%d) but not in B(%d,%d)", m.V, u, l, w, l)
					}
				}
			}
		}
	}
}

// TestLemma2Routing walks the first-hop tables from u to every member of
// B(u, l) and checks the walk is a shortest path.
func TestLemma2Routing(t *testing.T) {
	g := testutil.MustGNM(t, 40, 100, 9, gen.UniformInt)
	a := graph.AllPairs(g)
	l := 10
	sets := buildAll(t, g, l)
	for u := 0; u < g.N(); u++ {
		for _, m := range sets[u].Members() {
			if m.V == graph.Vertex(u) {
				continue
			}
			at := graph.Vertex(u)
			var total float64
			for at != m.V {
				port, ok := sets[at].FirstPort(m.V)
				if !ok {
					t.Fatalf("vertex %d on route %d->%d lost the target", at, u, m.V)
				}
				if int(port) >= g.Degree(at) {
					t.Fatalf("first port %d of %d is out of range", port, at)
				}
				next, w, _ := g.Endpoint(at, port)
				if next != m.First && at == graph.Vertex(u) {
					t.Fatalf("first port of %d->%d leads to %d, want the first hop %d", u, m.V, next, m.First)
				}
				total += w
				at = next
				if total > a.Dist(graph.Vertex(u), m.V)+testutil.Eps {
					t.Fatalf("route %d->%d exceeded shortest distance", u, m.V)
				}
			}
			if math.Abs(total-a.Dist(graph.Vertex(u), m.V)) > testutil.Eps {
				t.Fatalf("route %d->%d has length %v want %v", u, m.V, total, a.Dist(graph.Vertex(u), m.V))
			}
		}
	}
}

func TestRadius(t *testing.T) {
	// Star graph: center 0 with 6 unit spokes. B(0, 4) contains 0 and three
	// leaves; the distance-1 class is truncated so r_0(4) = 0.
	b := graph.NewBuilder(7)
	for i := 1; i < 7; i++ {
		b.AddUnitEdge(0, graph.Vertex(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := vicinity.Build(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Radius() != 0 {
		t.Fatalf("truncated class: radius = %v, want 0", s.Radius())
	}
	s, err = vicinity.Build(g, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Radius() != 1 {
		t.Fatalf("full vicinity: radius = %v, want 1", s.Radius())
	}
	// A leaf's vicinity of size 2 is {leaf, center}: class at distance 1
	// complete, so radius 1.
	s, err = vicinity.Build(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Radius() != 1 {
		t.Fatalf("leaf radius = %v, want 1", s.Radius())
	}
}

func TestInflatedSize(t *testing.T) {
	tests := []struct {
		x, n   int
		factor float64
		want   int
	}{
		{1, 100, 1, 5},    // ceil(ln 100) = 5
		{10, 100, 1, 47},  // ceil(10 ln 100)
		{10, 20, 1, 20},   // clamped to n
		{10, 100, 0, 10},  // clamped up to x
		{0, 100, 1, 5},    // x floored at 1
		{50, 100, 2, 100}, // clamped to n
	}
	for _, tt := range tests {
		if got := vicinity.InflatedSize(tt.x, tt.n, tt.factor); got != tt.want {
			t.Errorf("InflatedSize(%d,%d,%v) = %d, want %d", tt.x, tt.n, tt.factor, got, tt.want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
