package vicinity_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"compactroute/internal/gen"
	"compactroute/internal/graph"
	"compactroute/internal/testutil"
	"compactroute/internal/vicinity"
	"compactroute/internal/wire"
)

// decodeBoth round-trips a family through both wire layouts over g.
func decodeBoth(t *testing.T, g *graph.Graph, sets []*vicinity.Set) (v1, v2 []*vicinity.Set) {
	t.Helper()
	snap := wire.New("vicinity-test", g.Fingerprint())
	vicinity.EncodeSets(snap.Section("v1"), sets)
	if err := vicinity.EncodeSetsV2(snap.AlignedSection("v2"), sets); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := wire.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := parsed.Decoder("v1")
	if err != nil {
		t.Fatal(err)
	}
	if v1, err = vicinity.DecodeSets(d1, g); err != nil {
		t.Fatal(err)
	}
	d2, err := parsed.Decoder("v2")
	if err != nil {
		t.Fatal(err)
	}
	if v2, err = vicinity.DecodeSetsV2(d2, g); err != nil {
		t.Fatal(err)
	}
	return v1, v2
}

// TestFirstPortAcrossStorages checks that built, v1-decoded and v2-decoded
// (lazily filled) families answer every FirstPort and Contains query alike,
// that the port leads to the member's first hop, and that the center and
// non-members have no first port. The decoded families are probed from
// several goroutines at once so the race detector sees concurrent first
// lookups of one set.
func TestFirstPortAcrossStorages(t *testing.T) {
	g := testutil.MustGNM(t, 90, 270, 5, gen.UniformInt)
	sets := buildAll(t, g, 12)
	v1, v2 := decodeBoth(t, g, sets)
	for u := 0; u < g.N(); u++ {
		at := graph.Vertex(u)
		if _, ok := sets[u].FirstPort(at); ok {
			t.Fatalf("B(%d) has a first port to its own center", u)
		}
		for _, m := range sets[u].Members() {
			if m.V == at {
				continue
			}
			p, ok := sets[u].FirstPort(m.V)
			if !ok {
				t.Fatalf("B(%d) has no first port to member %d", u, m.V)
			}
			if next, _, _ := g.Endpoint(at, p); next != m.First {
				t.Fatalf("B(%d): port %d to member %d leads to %d, want %d", u, p, m.V, next, m.First)
			}
		}
	}
	for name, fam := range map[string][]*vicinity.Set{"v1": v1, "v2": v2} {
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := 0; u < g.N(); u++ {
					for v := graph.Vertex(-1); int(v) < g.N(); v++ {
						wp, wok := sets[u].FirstPort(v)
						gp, gok := fam[u].FirstPort(v)
						if wp != gp || wok != gok || sets[u].Contains(v) != fam[u].Contains(v) {
							errs <- name
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if bad, ok := <-errs; ok {
			t.Fatalf("%s-decoded family disagrees with the built one", bad)
		}
	}
}

// TestRestoreRejectsBadMembers pins Restore's member checks: a first hop
// that is not a neighbor of the center, and a duplicated member.
func TestRestoreRejectsBadMembers(t *testing.T) {
	g := testutil.MustGNM(t, 60, 180, 2, gen.UniformInt)
	s, err := vicinity.Build(g, 0, 15)
	if err != nil {
		t.Fatal(err)
	}
	ms := append([]vicinity.Member(nil), s.Members()...)
	if _, err := vicinity.Restore(g, 0, s.Radius(), ms); err != nil {
		t.Fatalf("valid members rejected: %v", err)
	}
	far := -1
	for i, m := range ms {
		if m.V != 0 && !g.HasEdge(0, m.V) {
			far = i
			break
		}
	}
	if far < 0 {
		t.Fatal("B(0) has no member beyond the center's neighbors")
	}
	bad := append([]vicinity.Member(nil), ms...)
	bad[far].First = bad[far].V
	if _, err := vicinity.Restore(g, 0, s.Radius(), bad); err == nil || !strings.Contains(err.Error(), "not adjacent") {
		t.Fatalf("non-adjacent first hop: got %v", err)
	}
	dup := append([]vicinity.Member(nil), ms...)
	dup[len(dup)-1] = dup[1]
	if _, err := vicinity.Restore(g, 0, s.Radius(), dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate member: got %v", err)
	}
}
