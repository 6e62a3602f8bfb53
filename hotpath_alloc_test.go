package compactroute_test

import (
	"testing"

	"compactroute"
)

// TestQueryHotPathAllocs pins the serving hot path at zero steady-state
// allocations (the serving counterpart of the search kernels'
// TestSearchKernelAllocsSteadyState): once the engine's workers have warmed
// their scratch packets and the result buffer is preallocated, neither the
// batched Query path nor the single-query Route path may allocate, for the
// headline scheme (thm11), the Thorup-Zwick baseline and the exact baseline.
// The live engine on an empty overlay is pinned the same way.
func TestQueryHotPathAllocs(t *testing.T) {
	g, err := compactroute.GNM(96, 384, 3, true, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	builds := []struct {
		name  string
		build func() (compactroute.Scheme, error)
	}{
		{"exact", func() (compactroute.Scheme, error) { return compactroute.NewExact(g) }},
		{"tzroute", func() (compactroute.Scheme, error) {
			return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: 3})
		}},
		{"thm11", func() (compactroute.Scheme, error) {
			return compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 3})
		}},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			s, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := compactroute.NewServeEngine(s, compactroute.ServeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			n := g.N()
			pairs := make([][2]compactroute.Vertex, 256)
			for i := range pairs {
				pairs[i] = [2]compactroute.Vertex{
					compactroute.Vertex((i * 7) % n),
					compactroute.Vertex((i*13 + 1) % n),
				}
			}
			out := make([]compactroute.ServeResult, len(pairs))

			// Warm up: workers allocate their scratch packets (and, for
			// thm11, the retained inter state) on the first batches.
			for i := 0; i < 4; i++ {
				eng.Query(pairs, out)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Query(pairs, out)
			}); allocs != 0 {
				t.Errorf("Engine.Query (warm, preallocated out): %v allocs/op, want 0", allocs)
			}
			for i := range out {
				if out[i].Err != nil {
					t.Fatalf("pair %v failed: %v", pairs[i], out[i].Err)
				}
			}

			// The single-query path pools its scratch packet per engine.
			for i := 0; i < 32; i++ {
				eng.Route(pairs[i][0], pairs[i][1])
			}
			i := 0
			if allocs := testing.AllocsPerRun(20, func() {
				eng.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
				i++
			}); allocs != 0 {
				t.Errorf("Engine.Route (warm): %v allocs/op, want 0", allocs)
			}

			// The live engine on an empty overlay runs the same core and hop
			// loop, with the overlay as the loop's edge hook.
			if raceEnabled {
				t.Skip("race instrumentation drops pooled scratch; allocs/op is only meaningful without -race")
			}
			l, err := compactroute.ServeLive(s, compactroute.LiveServeOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			lout := make([]compactroute.LiveResult, len(pairs))
			for i := 0; i < 4; i++ {
				l.Query(pairs, lout)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				l.Query(pairs, lout)
			}); allocs != 0 {
				t.Errorf("Live.Query (warm, empty overlay): %v allocs/op, want 0", allocs)
			}
			for i := range lout {
				if lout[i].Err != nil || lout[i].Stale() {
					t.Fatalf("live pair %v: err %v, stale %v", pairs[i], lout[i].Err, lout[i].Stale())
				}
				if lout[i].Hops != out[i].Hops || lout[i].Weight != out[i].Weight {
					t.Fatalf("live pair %v: (%d, %v) != engine (%d, %v)",
						pairs[i], lout[i].Hops, lout[i].Weight, out[i].Hops, out[i].Weight)
				}
			}
			for i := 0; i < 32; i++ {
				l.Route(pairs[i][0], pairs[i][1])
			}
			if allocs := testing.AllocsPerRun(20, func() {
				l.Route(pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
				i++
			}); allocs != 0 {
				t.Errorf("Live.Route (warm, empty overlay): %v allocs/op, want 0", allocs)
			}
		})
	}
}
