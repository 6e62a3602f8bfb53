// Command perfbench is the repository benchmark. It runs one workload
// against the compactroute code in the enclosing checkout, checks that every
// answer is correct, and prints its metrics: a readable report first, then,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Usage (from the root of the checkout; perfbench/run.sh builds this
// program and routeserve first):
//
//	perfbench -routeserve BIN -workdir DIR --workload tcp-thm11|inproc-thm11|churn-thm11
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, measured by timing calls into each layer
// from outside (see README.md). The program exits non-zero when any check
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// config is what every workload receives.
type config struct {
	seed      int64
	seconds   float64
	trace     bool
	routeserv string // routeserve binary built from the tree under test
	workdir   string // scratch directory inside the checkout
	self      string // this binary, re-run to build snapshots
}

// outcome is what a workload reports.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string // human-readable reasons for failed checks
	metrics   map[string]float64
	notes     []string // extra report lines (flags, diagnostics)
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records a failed check; it does not count an operation.
func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(cfg config, o *outcome) error{
	"tcp-thm11":    runTCP,
	"inproc-thm11": runInproc,
	"churn-thm11":  runChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "build-snapshot" {
		if err := buildSnapshotMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench build-snapshot:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: tcp-thm11, inproc-thm11 or churn-thm11")
		seed     = fs.Int64("seed", 1, "seed of the graph, the pair stream and the churn trace")
		seconds  = fs.Float64("seconds", 10, "measured seconds")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
		rsBin    = fs.String("routeserve", "", "routeserve binary built from the tree under test")
		workdir  = fs.String("workdir", ".bench_build", "scratch directory for snapshots")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	killChildrenOnSignal()
	self, err := os.Executable()
	if err != nil {
		return 2, fmt.Errorf("locate own binary: %w", err)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return 2, err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		routeserv: *rsBin, workdir: *workdir, self: self}
	clock := clockCost()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d trace.clock_ns=%.1f\n",
		*workload, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), clock)
	o := newOutcome()
	o.metrics["trace.clock_ns"] = clock
	if err := fn(cfg, o); err != nil {
		// A workload that could not finish prints no result line.
		return 1, fmt.Errorf("%s: %w", *workload, err)
	}
	return report(o, cfg.trace), nil
}

// report prints every measured metric with its unit, then the result line.
// It returns the exit code: non-zero when any check failed.
func report(o *outcome, trace bool) int {
	names := make([]string, 0, len(o.metrics))
	for name := range o.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %14.4f %s\n", name, o.metrics[name], unitOf(name))
	}
	for _, n := range o.notes {
		fmt.Println("#", n)
	}
	for _, p := range o.problems {
		fmt.Println("# FAILED CHECK:", p)
	}
	fmt.Printf("ops %d\nfailed_ops %d\n", o.attempted, o.failed)
	correct := o.failed == 0 && len(o.problems) == 0 && o.attempted > 0
	want := endToEnd
	if trace {
		want = perLayer
	}
	out := map[string]any{}
	for _, m := range want {
		// A layer the workload does not run did no work: it reads 0.
		out[m.name] = map[string]any{"value": o.metrics[m.name], "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": o.attempted, "failed": o.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
