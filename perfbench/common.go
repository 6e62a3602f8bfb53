package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"compactroute"
	"compactroute/internal/obs"
)

// Workload parameters shared by the snapshot build process and the workloads.
const (
	schemeEps  = 0.25
	maxWeight  = 32
	budgetMiB  = 256 // lazy APSP row cache of the build: all rows fit at n = 4000
	setupReps  = 3   // set-ups per run; setup_s is their median
	verifyCap  = 1000
	sampleMask = 63 // a pair is in the check sample iff QueryID & sampleMask == 0
)

// graphFor makes the workload graph of a seed: connected G(n, 4n), integer
// weights in [1, maxWeight].
func graphFor(n int, seed int64) (*compactroute.Graph, error) {
	return compactroute.GNM(n, 4*n, seed, true, maxWeight)
}

func schemeOptions(seed int64) compactroute.Options {
	return compactroute.Options{Eps: schemeEps, Seed: seed}
}

// buildStats is what the snapshot build process reports.
type buildStats struct {
	BuildS   float64 `json:"build_s"`
	SaveMs   float64 `json:"save_ms"`
	LazyRows int64   `json:"lazy_rows"`
	Bytes    int64   `json:"bytes"`
}

// buildSnapshotMain is the build subprocess: it builds the Theorem 11
// scheme of a seed, saves it, and prints its buildStats as JSON. Building in
// a child keeps the build's memory and garbage out of the serving process.
func buildSnapshotMain(args []string) error {
	fs := flag.NewFlagSet("build-snapshot", flag.ContinueOnError)
	n := fs.Int("n", 4000, "vertices")
	seed := fs.Int64("seed", 1, "graph and scheme seed")
	out := fs.String("out", "", "snapshot path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := graphFor(*n, *seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	ps := compactroute.NewLazyAPSP(g, budgetMiB<<20)
	s, err := compactroute.NewTheorem11(g, ps, schemeOptions(*seed))
	if err != nil {
		return err
	}
	build := time.Since(t0)
	t1 := time.Now()
	if err := compactroute.SaveSchemeFile(*out, s); err != nil {
		return err
	}
	save := time.Since(t1)
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(buildStats{
		BuildS: build.Seconds(), SaveMs: ms(save), LazyRows: ps.Stats().Misses, Bytes: st.Size()})
}

// buildSnapshot runs the build subprocess and returns its stats.
func buildSnapshot(cfg config, n int, path string) (buildStats, error) {
	var st buildStats
	cmd := exec.Command(cfg.self, "build-snapshot", "-n", strconv.Itoa(n),
		"-seed", strconv.FormatInt(cfg.seed, 10), "-out", path)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := startChild(cmd); err != nil {
		return st, fmt.Errorf("build snapshot: %w", err)
	}
	err := cmd.Wait()
	release(cmd)
	if err != nil {
		return st, fmt.Errorf("build snapshot: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &st); err != nil {
		return st, fmt.Errorf("build snapshot: parse %q: %w", out.String(), err)
	}
	return st, nil
}

// snapshotPath names the snapshot file of one set-up.
func snapshotPath(cfg config, name string, rep int) string {
	return filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d.snap", name, cfg.seed, rep))
}

// loadTimes collects the snapshot-load observer's events.
type loadTimes struct{ mapMs, decodeMs float64 }

// observeLoads installs a load observer; the returned func reads the last
// event.
func observeLoads() func() loadTimes {
	ch := make(chan compactroute.SnapshotLoadEvent, 1)
	compactroute.SetSnapshotLoadObserver(func(ev compactroute.SnapshotLoadEvent) {
		select {
		case <-ch:
		default:
		}
		ch <- ev
	})
	return func() loadTimes {
		select {
		case ev := <-ch:
			return loadTimes{mapMs: ms(ev.Map), decodeMs: ms(ev.Parse + ev.Decode)}
		default:
			return loadTimes{}
		}
	}
}

// pairStream makes n uniform random pairs of distinct vertices.
func pairStream(rng *rand.Rand, nv, n int) [][2]compactroute.Vertex {
	pairs := make([][2]compactroute.Vertex, n)
	for i := range pairs {
		u := rng.Intn(nv)
		v := rng.Intn(nv - 1)
		if v >= u {
			v++
		}
		pairs[i] = [2]compactroute.Vertex{compactroute.Vertex(u), compactroute.Vertex(v)}
	}
	return pairs
}

// inSample reports whether a pair belongs to the deterministic check sample,
// chosen by the same pair hash the serving engines sample traces with.
func inSample(p [2]compactroute.Vertex) bool {
	return obs.QueryID(int32(p[0]), int32(p[1]))&sampleMask == 0
}

// checkStretch proves a delivered route's true distance with the bounded
// bidirectional search and checks the routed weight against the scheme's
// proved bound. It returns the stretch (0 for a zero-distance pair).
func checkStretch(s compactroute.Scheme, src, dst compactroute.Vertex, weight float64) (float64, error) {
	d := s.Graph().BoundedBidiDist(src, dst, weight)
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("route %d->%d weight %g: no path within the routed weight", src, dst, weight)
	}
	if weight > s.StretchBound(d)+1e-9 {
		return 0, fmt.Errorf("route %d->%d weight %g exceeds bound %g at distance %g", src, dst, weight, s.StretchBound(d), d)
	}
	if d == 0 {
		return 0, nil
	}
	return weight / d, nil
}

// tableWordsMean is the paper's space measure: mean routing-table words per
// vertex.
func tableWordsMean(s compactroute.Scheme) float64 {
	n := s.Graph().N()
	var sum float64
	for v := 0; v < n; v++ {
		sum += float64(s.TableWords(compactroute.Vertex(v)))
	}
	return sum / float64(n)
}

// clockCost measures one time.Now call in ns (the minimum of a few loops).
func clockCost() float64 {
	const n = 200000
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = time.Now()
		}
		best = math.Min(best, float64(time.Since(t0).Nanoseconds())/n)
	}
	return best
}

// releaseMemory returns freed heap to the OS so the next phase's peak RSS
// is its own.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// rounds is the number of measured rounds or windows in a run of the given
// seconds: one a second, at least statWindows.
func rounds(seconds float64) int { return max(statWindows, int(seconds)) }

// calmRate and calmTime summarise per-window rates and times by the
// quartile on the fast side. A stall of the shared host only ever slows a
// window, so this quartile is what the program does when the host lets it
// run, and it moves little when a few windows are hit.
func calmRate(rates []float64) float64 { return quantile(append([]float64(nil), rates...), 0.75) }
func calmTime(times []float64) float64 { return quantile(append([]float64(nil), times...), 0.25) }

// statWindows is the fewest windows a timed phase is cut into; its rates
// and percentiles are summarised over the windows (see calmRate), so one
// stall of the machine moves one window, not the reported figure.
const statWindows = 10

// windowQuantiles cuts time-ordered samples into n equal runs and returns
// the q-quantile of each, in time order. xs is left unchanged.
func windowQuantiles(xs []float64, q float64, n int) []float64 {
	per := len(xs) / n
	if per == 0 {
		return []float64{quantile(append([]float64(nil), xs...), q)}
	}
	qs := make([]float64, 0, n)
	buf := make([]float64, per)
	for w := 0; w < n; w++ {
		copy(buf, xs[w*per:(w+1)*per])
		qs = append(qs, quantile(buf, q))
	}
	return qs
}

// windowRates cuts [0, span) into n equal windows and returns the event
// rate of each, in time order, given the times of events (each standing for
// weight events) as offsets from the phase start.
func windowRates(marks []time.Duration, weight float64, span time.Duration, n int) []float64 {
	win := span / time.Duration(n)
	counts := make([]float64, n)
	for _, m := range marks {
		if w := int(m / win); w >= 0 && w < n {
			counts[w] += weight
		}
	}
	for i := range counts {
		counts[i] /= win.Seconds()
	}
	return counts
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
