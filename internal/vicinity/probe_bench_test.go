package vicinity_test

import (
	"math"
	"math/rand"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/vicinity"
)

// BenchmarkVicinityProbe measures one Lemma 2 table probe, FirstPort, the
// way a serving loop issues them: a whole Theorem 11 vicinity family on
// G(n, 4n) with integer weights in [1, 32] at n = 4000, probed at random
// (center, member) pairs, so the working set is every table of the family
// rather than one cache-resident set.
func BenchmarkVicinityProbe(b *testing.B) {
	const n = 4000
	g, err := gen.ConnectedGNM(gen.Config{N: n, Seed: 1, Weighting: gen.UniformInt, MaxWeight: 32}, 4*n)
	if err != nil {
		b.Fatal(err)
	}
	// Theorem 11's vicinity size: q = ceil(n^{1/3}) inflated by the
	// default factor 1.5.
	l := vicinity.InflatedSize(int(math.Ceil(math.Cbrt(n))), n, 1.5)
	sets, err := vicinity.BuildAll(g, l)
	if err != nil {
		b.Fatal(err)
	}
	type probe struct{ at, target graph.Vertex }
	probes := make([]probe, 1<<16)
	r := rand.New(rand.NewSource(1))
	for i := range probes {
		at := graph.Vertex(r.Intn(n))
		target := at
		for target == at { // the center has no first port
			target = sets[at].MemberV(r.Intn(sets[at].Size()))
		}
		probes[i] = probe{at, target}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum graph.Port
	for i := 0; i < b.N; i++ {
		p := probes[i&(len(probes)-1)]
		port, ok := sets[p.at].FirstPort(p.target)
		if !ok {
			b.Fatalf("FirstPort(%d) at %d missed a member", p.target, p.at)
		}
		sum += port
	}
	if sum < 0 {
		b.Fatal("negative port sum")
	}
}
