package compactroute_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"compactroute"
)

// saveTempSnapshot builds a scheme, saves it to a temp file, and returns the
// path plus the in-memory original.
func saveTempSnapshot(t *testing.T, build func() (compactroute.Scheme, error)) (string, compactroute.Scheme) {
	t.Helper()
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scheme.snap")
	if err := compactroute.SaveSchemeFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path, s
}

// TestOpenSchemeFileRoundTrip is the mmap-path acceptance test: a scheme
// decoded over the mapping must evaluate identically to the in-memory
// original, and on platforms with mmap the snapshot must actually be mapped
// (zero-copy, page-cache-shared), not read into a buffer.
func TestOpenSchemeFileRoundTrip(t *testing.T) {
	const n = 96
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	path, built := saveTempSnapshot(t, func() (compactroute.Scheme, error) {
		return compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: benchSeed})
	})
	sf, err := compactroute.OpenSchemeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	if !sf.Mapped() {
		t.Fatal("snapshot not memory-mapped on a platform with mmap support")
	}
	loaded := sf.Scheme
	pairs := compactroute.SamplePairs(n, 200, benchSeed+3)
	lps := compactroute.AllPairs(loaded.Graph())
	evb, err := compactroute.EvaluateBatched(built, ps, pairs, compactroute.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evl, err := compactroute.EvaluateBatched(loaded, lps, pairs, compactroute.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evb, evl) {
		t.Fatalf("mmap-loaded evaluation diverges:\nbuilt:  %+v\nmapped: %+v", evb, evl)
	}
}

// TestSchemeFileTruncationTyped pins the typed load failures: any truncation
// - including cuts landing exactly on the 64-byte boundaries where aligned
// sections start - is rejected by the v2 header's total-length check as
// ErrSnapshotTruncated, before any section is parsed or any table aliased
// over the bytes; same-length corruption is a distinct ErrSnapshotChecksum.
func TestSchemeFileTruncationTyped(t *testing.T) {
	g, err := compactroute.GNM(32, 128, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := saveTempSnapshot(t, func() (compactroute.Scheme, error) {
		return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
	})
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cuts := []int{16, len(valid) / 3, len(valid) / 2, len(valid) - 4, len(valid) - 1}
	for off := 64; off < len(valid); off += 64 { // every aligned-section boundary candidate
		cuts = append(cuts, off)
	}
	for _, cut := range cuts {
		bad := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(bad, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := compactroute.LoadSchemeFile(bad)
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(valid))
		}
		if !errors.Is(err, compactroute.ErrSnapshotTruncated) {
			t.Fatalf("truncation at %d: %v, want ErrSnapshotTruncated", cut, err)
		}
	}
	// Same length, flipped payload byte: the total-length check passes and
	// the checksum rejects it instead.
	bad := append([]byte(nil), valid...)
	bad[len(bad)/2] ^= 0x01
	corrupt := filepath.Join(dir, "corrupt.snap")
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = compactroute.LoadSchemeFile(corrupt)
	if !errors.Is(err, compactroute.ErrSnapshotChecksum) {
		t.Fatalf("corrupted payload: %v, want ErrSnapshotChecksum", err)
	}
	if errors.Is(err, compactroute.ErrSnapshotTruncated) {
		t.Fatalf("corrupted payload reported as truncation: %v", err)
	}
}

// TestSchemeFileAliasSafety serves the same read-only mapping from two
// independent handles and many goroutines at once. The mapping is mapped
// PROT_READ, so any write through an aliased table faults immediately, and
// the race detector (go test -race) flags any unsynchronized write to
// decoder-built index structures shared across queries.
func TestSchemeFileAliasSafety(t *testing.T) {
	const n = 64
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := saveTempSnapshot(t, func() (compactroute.Scheme, error) {
		return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
	})
	var handles [2]*compactroute.SchemeFile
	for i := range handles {
		sf, err := compactroute.OpenSchemeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		handles[i] = sf
	}
	pairs := compactroute.SamplePairs(n, 100, benchSeed+9)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := handles[w%2].Scheme
			nw := compactroute.NewNetworkWithPath(s)
			for _, p := range pairs {
				if _, err := nw.Route(p[0], p[1]); err != nil {
					t.Errorf("route %v: %v", p, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestOpenLiveStateFileMunmapAfterDrain serves off a mapped snapshot, then
// rebuilds: the hot swap moves serving onto a heap-built generation and the
// engine munmaps the file once the mapped generation drains. Queries issued
// after the swap must be answered entirely off the heap generation - if any
// table still aliased the (now unmapped) pages this would fault.
func TestOpenLiveStateFileMunmapAfterDrain(t *testing.T) {
	const n = 96
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := saveTempSnapshot(t, func() (compactroute.Scheme, error) {
		return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
	})
	kind, err := compactroute.PeekSnapshotKind(path)
	if err != nil {
		t.Fatal(err)
	}
	build, err := compactroute.RebuildFuncFor(kind, compactroute.Options{K: 2, Seed: benchSeed}, 64)
	if err != nil {
		t.Fatal(err)
	}
	l, err := compactroute.OpenLiveStateFile(path, compactroute.LiveServeOptions{Workers: 2, Build: build})
	if err != nil {
		t.Fatal(err)
	}
	pairs := compactroute.SamplePairs(n, 100, benchSeed+1)
	for _, r := range l.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatalf("mapped generation: %v", r.Err)
		}
	}
	// Churn while the mapped generation serves: every update lands in the
	// heap overlay - the mapped tables are PROT_READ, so any write through
	// an aliased slice would fault here, not pass silently.
	trace := compactroute.DeletionTrace(l.Scheme().Graph(), 0.05, benchSeed)
	if err := l.ApplyUpdates(trace); err != nil {
		t.Fatal(err)
	}
	for _, r := range l.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatalf("churned mapped generation: %v", r.Err)
		}
	}
	if err := l.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if l.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", l.Generation())
	}
	// The mapped generation has drained (Rebuild swapped it out, and all
	// queries above returned), so the file is unmapped by now; these queries
	// run on the rebuilt heap generation.
	for _, r := range l.Query(pairs, nil) {
		if r.Err != nil {
			t.Fatalf("post-swap: %v", r.Err)
		}
	}
}

// TestResaveOverServedSnapshot re-saves over snapshot files that are being
// served off their mappings, while they serve. The replacement is far
// smaller than the served file, so a save that truncated the file in place
// would leave the old mapping's tables past the new end of file and the next
// route would die with SIGBUS; the atomic replace keeps the served inode
// intact, so every route after the save equals the route before it.
func TestResaveOverServedSnapshot(t *testing.T) {
	const n = 96
	g, err := compactroute.GNM(n, 4*n, benchSeed, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	path, _ := saveTempSnapshot(t, func() (compactroute.Scheme, error) {
		return compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
	})
	small, err := compactroute.GNM(8, 16, benchSeed, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := compactroute.NewExact(small)
	if err != nil {
		t.Fatal(err)
	}
	pairs := compactroute.SamplePairs(n, 200, benchSeed+2)

	// resaveWhileServing routes pairs with route before, during and after
	// save, and checks every answer against the first pass.
	resaveWhileServing := func(t *testing.T, route func(p [2]compactroute.Vertex) (int, float64, error), save func() error) {
		t.Helper()
		type answer struct {
			hops   int
			weight float64
		}
		want := make([]answer, len(pairs))
		for i, p := range pairs {
			h, w, err := route(p)
			if err != nil {
				t.Fatalf("route %v before the save: %v", p, err)
			}
			want[i] = answer{h, w}
		}
		check := func(when string) error {
			for i, p := range pairs {
				h, w, err := route(p)
				if err != nil {
					return err
				}
				if (answer{h, w}) != want[i] {
					return fmt.Errorf("route %v %s the save: (%d, %v), want (%d, %v)", p, when, h, w, want[i].hops, want[i].weight)
				}
			}
			return nil
		}
		done := make(chan error, 1)
		go func() { done <- check("during") }()
		if err := save(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := check("after"); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("scheme", func(t *testing.T) {
		sf, err := compactroute.OpenSchemeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer sf.Close()
		eng, err := compactroute.NewServeEngine(sf.Scheme, compactroute.ServeOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		resaveWhileServing(t, func(p [2]compactroute.Vertex) (int, float64, error) {
			r := eng.Route(p[0], p[1])
			return r.Hops, r.Weight, r.Err
		}, func() error { return compactroute.SaveSchemeFile(path, tiny) })
		reloaded, err := compactroute.LoadSchemeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if reloaded.Graph().N() != small.N() {
			t.Fatalf("re-saved file holds a graph on %d vertices, want %d", reloaded.Graph().N(), small.N())
		}
	})

	t.Run("live", func(t *testing.T) {
		livePath := filepath.Join(t.TempDir(), "live.snap")
		base, err := compactroute.NewThorupZwick(g, compactroute.Options{K: 2, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		if err := compactroute.SaveSchemeFile(livePath, base); err != nil {
			t.Fatal(err)
		}
		l, err := compactroute.OpenLiveStateFile(livePath, compactroute.LiveServeOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		tinyLive, err := compactroute.ServeLive(tiny, compactroute.LiveServeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer tinyLive.Close()
		resaveWhileServing(t, func(p [2]compactroute.Vertex) (int, float64, error) {
			r := l.Route(p[0], p[1])
			return r.Hops, r.Weight, r.Err
		}, func() error { return compactroute.SaveLiveStateFile(livePath, tinyLive) })
	})
}
