// Package serve answers route(u, v) queries from many workers at once and
// keeps serving statistics. It has one serving core and two front ends.
//
// The core owns the shards: each is a persistent worker goroutine with
// private scratch (a reused packet, and on the live front end the overlay
// hook's counters) and its own statistics block - the same own-your-slot
// idiom the construction pipeline (internal/parallel) and the search kernels
// (graph.Workspace pooling) use - so queries never contend on shared mutable
// state. A batched Query is split into contiguous blocks handed to the shard
// workers; stats are folded into the shard block in chunks instead of per
// query and merged on demand by Stats. Both entry points (Query and the
// single-query Route) funnel through one routeOne, so sampling, verification
// and audit attribution cannot diverge, and a warm engine routes without
// allocating.
//
// The front ends differ only in how one pair is walked. Engine serves one
// immutable preprocessed scheme through simnet's hop loop. Live serves a
// scheme while the graph churns underneath it: the same hop loop runs with
// the edge-delta overlay as its per-hop edge hook (live.Router), behind
// RCU-refcounted generations that rebuild, repair and hot-swap in the
// background, with a per-route clean check deciding whether a delivery is
// held to the proved stretch bound or accounted as staleness.
//
// The evaluation harness (compactroute.EvaluateBatched) is a client of the
// Engine, so offline evaluation and online serving exercise the same code
// path; cmd/routeserve drives both front ends from a snapshot over a
// line/JSON protocol and a built-in closed-loop load generator.
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"compactroute/internal/graph"
	"compactroute/internal/obs"
	"compactroute/internal/parallel"
	"compactroute/internal/simnet"
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of shards (concurrent routing lanes); <= 0
	// selects the package-wide parallelism default (GOMAXPROCS, so the
	// shard count matches the core count).
	Workers int
	// Verify looks up the true shortest distance of every delivered query
	// and checks the routed weight against the scheme's proved
	// StretchBound, feeding the stretch histogram and violation counter.
	Verify bool
	// Paths, when set, supplies the true distances Verify checks against
	// (dense or lazy; a LazyAPSP is concurrency-safe). When nil, Verify
	// proves them with the bounded bidirectional kernel instead, bounded by
	// the routed weight, which always covers the true distance of a
	// delivered route. Repo graphs carry integer weights, so both sources
	// give bit-identical statistics.
	Paths graph.PathSource
	// MaxHops overrides the simulator's loop-protection hop limit
	// (0 keeps the simnet default of 8n+64).
	MaxHops int
	// FailFast makes Query abandon a batch after the first routing
	// failure: remaining pairs are not routed and carry ErrAborted.
	// The batched evaluation harness uses this so a broken scheme fails
	// in one route instead of burning the hop limit on every pair.
	FailFast bool
	// PinWorkers locks every shard worker to its OS thread, pinning one
	// serving lane per core on machines where the scheduler would
	// otherwise migrate them between batches.
	PinWorkers bool
	// Obs, when non-nil, registers the engine's serving statistics on the
	// registry as func-backed instruments refreshed by a collect hook at
	// scrape time - the sharded hot-path counters stay exactly as they are.
	Obs *obs.Registry
	// Trace, when non-nil, samples per-query route traces (deterministic
	// hash-based selection; see obs.TraceSink). Untraced queries pay one
	// hash and one branch; a nil Trace pays one nil check.
	Trace *obs.TraceSink
	// Audit, when non-nil, shadow-verifies a deterministic sample of
	// delivered queries off the hot path through the bounded bidirectional
	// kernel (see Auditor). New starts the auditor against this engine; one
	// auditor serves one engine, and the caller Closes it after the engine
	// is done.
	Audit *Auditor
	// FlightRec, when non-nil, receives notable serving events - audited
	// bound violations with the offending route and its trace, and (on the
	// live engine) churn/repair/swap lifecycle transitions.
	FlightRec *obs.FlightRecorder
}

// ErrAborted marks pairs skipped after a FailFast batch hit its first
// routing failure.
var ErrAborted = errors.New("serve: batch aborted after an earlier routing failure")

// Result is the outcome of one served query.
type Result struct {
	Src, Dst    graph.Vertex
	Hops        int
	HeaderWords int
	Weight      float64
	// Dist is the true shortest distance (in the effective graph, on Live),
	// looked up only under Verify; -1 otherwise.
	Dist float64
	// DeadHits counts scheme decisions that chose a dead edge; Detours of
	// them were bypassed by bounded local search, DetourHops long in total;
	// Fallback reports a route completed by a per-query exact search. All
	// stay zero on Engine, which serves an unchanging graph.
	DeadHits   int
	Detours    int
	DetourHops int
	Fallback   bool
	Err        error
}

// Stale reports whether a route was served degraded: it crossed at least
// one overlay-patched decision (detour or fallback). A non-stale route is
// exactly the walk the preprocessed scheme takes on its own graph.
func (r Result) Stale() bool { return r.DeadHits > 0 || r.Fallback }

// Histogram geometry of the serving statistics.
const (
	// hopBuckets caps the hop histogram; routes longer than this land in
	// the overflow bucket (quantiles then report hopBuckets).
	hopBuckets = 1024
	// StretchBuckets histogram bins of width StretchBucketWidth starting
	// at stretch 1.0; the final bucket collects everything above.
	StretchBuckets     = 64
	StretchBucketWidth = 0.25
)

// Latency histogram geometry: route latencies are measured on a deterministic
// 1-in-latSample subset of queries (a time.Now pair costs more than a short
// route, so per-query timing would dominate the hot path) and recorded in
// exponential nanosecond buckets: bucket i spans (256ns<<(i-1), 256ns<<i],
// covering 256ns..~17s before the overflow bucket.
const (
	latBuckets   = 27
	latSampleBit = 7 // sample iff QueryID(src,dst) & latSampleBit == 0 (1 in 8)
)

// latBucket maps a nanosecond latency to its histogram bucket.
func latBucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns-1) >> 8)
	if b > latBuckets {
		b = latBuckets
	}
	return b
}

// latBoundNs is the upper bound of latency bucket i in nanoseconds.
func latBoundNs(i int) int64 { return 256 << uint(i) }

// statsChunk is the number of queries a batch worker accumulates in its
// private counters before folding them into the shard block under the
// lock. Chunking amortizes the mutex from one acquisition per query to one
// per chunk; the only observable effect is that Stats taken while a batch
// is in flight may lag the newest routes by up to a chunk (every counter
// is exact once Query returns).
const statsChunk = 512

// Stats is a merged snapshot of an engine's counters.
type Stats struct {
	Queries    uint64 // total queries served (including failures)
	Errors     uint64 // routing failures
	Unverified uint64 // deliveries served without distance verification
	// BoundViolations counts deliveries whose routed weight exceeded the
	// scheme's proved StretchBound - must stay zero.
	BoundViolations uint64
	Elapsed         time.Duration // since New or ResetStats
	QPS             float64       // Queries / Elapsed
	MeanHops        float64       // over deliveries
	P50Hops         int
	P99Hops         int
	// Latency quantiles are derived from the sampled latency histogram
	// (upper bucket bounds, so they are conservative); LatencySamples is
	// the number of measured queries behind them.
	LatencySamples uint64
	P50Latency     time.Duration
	P99Latency     time.Duration
	MaxStretch     float64
	// StretchHist[i] counts verified deliveries at positive distance with
	// stretch in [1+i*W, 1+(i+1)*W), W = StretchBucketWidth; the last
	// bucket collects everything above.
	StretchHist [StretchBuckets + 1]uint64
}

// counters is one shard's statistics block.
type counters struct {
	queries     uint64
	errors      uint64
	unverified  uint64
	violations  uint64
	hopsSum     uint64
	delivered   uint64
	maxStretch  float64
	latCount    uint64
	latSum      uint64 // nanoseconds over sampled queries
	hopHist     [hopBuckets + 1]uint64
	stretchHist [StretchBuckets + 1]uint64
	latHist     [latBuckets + 1]uint64

	// Churn accounting, fed only by Live: overlay interventions, and the
	// measured staleness stretch of deliveries that are not provably clean.
	deadHits   uint64
	detours    uint64
	detourHops uint64
	fallbacks  uint64
	stale      uint64
	maxStale   float64
	staleHist  [StretchBuckets + 1]uint64
}

// shard is one worker lane: the worker's job feed and the privately-owned
// counters. Shards are allocated separately so two lanes never share a
// cache line, and the read-mostly dispatch field is padded away from the
// mutex/counters the worker and Stats write - the dispatcher of one shard
// must not false-share with the stats traffic of another.
type shard struct {
	jobs chan batchJob
	_    [64]byte // keep dispatch reads off the stats line
	mu   sync.Mutex
	st   counters
	_    [64]byte
}

// batchJob is one contiguous block of a Query batch, dispatched to a shard
// worker. pairs and out are parallel slices of the caller's batch.
type batchJob struct {
	pairs [][2]graph.Vertex
	out   []Result
	bs    *batchState
}

// batchState is the pooled per-Query bookkeeping shared by the batch's
// jobs: the completion latch and the FailFast flag.
type batchState struct {
	wg     sync.WaitGroup
	failed atomic.Bool
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// closer owns the shutdown state of a core. It is shared by the core, its
// workers and the runtime cleanup of the front end, and deliberately
// references none of them: the cleanup must be able to fire (and release
// the workers) once the front end itself is unreachable.
type closer struct {
	mu     sync.RWMutex
	closed bool
	quit   chan struct{}
}

func (c *closer) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.quit)
	}
	c.mu.Unlock()
}

// walker is what tells the two front ends apart on the hot path: how one
// in-range pair is walked, and where the true distance of a delivered route
// comes from.
type walker interface {
	// walk routes src->dst. sc is scratch an earlier walk returned, or nil;
	// the scratch to reuse next comes back with the outcome. Scratch and
	// outcome travel by value, so a caller's state stays off the heap.
	walk(sc any, src, dst graph.Vertex, tr *obs.Trace) (any, walked)
	// trueDist proves the true distance of a delivered route of the given
	// weight.
	trueDist(src, dst graph.Vertex, weight float64) float64
}

// walked is one walk's outcome: the route fields of its Result, the scheme
// whose proved bound applies, the live generation the route held (released
// by routeOne once the route is accounted; nil on Engine), the generation id
// and overlay version it was routed on, and whether it provably ran clean.
type walked struct {
	Result
	scheme  simnet.Scheme
	gen     *generation
	genID   uint64
	version uint64
	clean   bool
}

// account is how one finished route lands in the counters.
type account struct {
	timed bool
	clean bool
	dt    int64
	bound float64 // the proved stretch bound at the verified distance
}

// core is the serving machinery both front ends share: the shard workers,
// batch dispatch, chunked statistics and the closer. It references neither
// front-end handle, so a handle dropped without Close becomes unreachable
// while the workers are parked, and its cleanup can release them.
type core struct {
	walk     walker
	n        graph.Vertex // vertex count, off the per-query path
	verify   bool
	failFast bool
	trace    *obs.TraceSink
	audit    *Auditor
	shards   []*shard
	cl       *closer
	// start is the QPS clock origin in unix nanoseconds; atomic because
	// ResetStats may race with Stats on the concurrent engine API.
	start atomic.Int64
	// rr picks Route's shard. Every Route writes it, so it sits on its own
	// cache line, away from the fields every route reads.
	_  [64]byte
	rr atomic.Uint64
	_  [64]byte
	// spare recycles the single-query Route path's walk scratch (batch
	// workers own theirs outright and never touch the pool).
	spare sync.Pool
	// obsCnt/obsStats are the merged snapshot behind the registry's
	// func-backed instruments; refreshed by the collect hook, read by the
	// instruments, both under the registry lock (see registerObs).
	obsCnt   counters
	obsStats Stats
}

// newCore completes a core whose front end has set its walker, vertex
// count and serving switches: it makes the shards and starts one worker
// goroutine per shard (workers <= 0 selects the package parallelism
// default).
func newCore(c *core, workers int, pinWorkers bool) *core {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	c.shards = make([]*shard, workers)
	c.cl = &closer{quit: make(chan struct{})}
	c.start.Store(time.Now().UnixNano())
	for i := range c.shards {
		c.shards[i] = &shard{jobs: make(chan batchJob, 8)}
		w := &worker{c: c, sh: c.shards[i]}
		go w.loop(pinWorkers)
	}
	return c
}

// Close stops the shard workers. It is idempotent and safe to call
// concurrently with queries: batches already dispatched are finished, and
// later Query/Route calls are served inline on the caller's goroutine.
func (c *core) Close() { c.cl.close() }

// Workers returns the number of shards.
func (c *core) Workers() int { return len(c.shards) }

// worker is the serving loop state of one shard.
type worker struct {
	c     *core
	sh    *shard
	sc    any      // the walker's scratch, worker-owned and reused by every route
	pend  counters // stats accumulated since the last flush
	pendN int
}

func (w *worker) loop(pinThread bool) {
	if pinThread {
		runtime.LockOSThread()
	}
	for {
		select {
		case job := <-w.sh.jobs:
			w.serve(job)
		case <-w.c.cl.quit:
			// Drain jobs that were enqueued before the closed flag was
			// published, so no dispatched batch is left waiting.
			for {
				select {
				case job := <-w.sh.jobs:
					w.serve(job)
				default:
					return
				}
			}
		}
	}
}

// serve routes one job block and signals completion. Pairs aborted by
// FailFast are not routed and stay out of the statistics.
func (w *worker) serve(job batchJob) {
	c := w.c
	for j := range job.pairs {
		res := &job.out[j]
		if c.failFast && job.bs.failed.Load() {
			*res = Result{Src: job.pairs[j][0], Dst: job.pairs[j][1], Dist: -1, Err: ErrAborted}
			continue
		}
		var a account
		w.sc, a = c.routeOne(w.sc, res, job.pairs[j][0], job.pairs[j][1])
		w.pend.add(res, a, c.verify)
		if w.pendN++; w.pendN >= statsChunk {
			w.flush()
		}
		if c.failFast && res.Err != nil {
			job.bs.failed.Store(true)
		}
	}
	w.flush()
	job.bs.wg.Done()
}

// flush folds the worker's pending counters into the shard block.
func (w *worker) flush() {
	if w.pendN == 0 {
		return
	}
	w.sh.mu.Lock()
	w.sh.st.mergeFrom(&w.pend)
	w.sh.mu.Unlock()
	w.pend = counters{}
	w.pendN = 0
}

// routeOne is the single-query hot path of both front ends and both entry
// points: id validation, deterministic trace and latency sampling, the
// walk, optional verification, and the audit offer. It fills res and
// returns the walker's scratch for the next route and how to account this
// one; the caller folds that into its counters (the worker's pending block,
// or the shard block under its lock). Vertex
// ids are validated here - the engines front untrusted protocol input, and
// schemes index their tables with the destination, so an out-of-range id
// must become a Result error, not a panic.
func (c *core) routeOne(sc any, res *Result, src, dst graph.Vertex) (any, account) {
	if src < 0 || src >= c.n || dst < 0 || dst >= c.n {
		*res = Result{Src: src, Dst: dst, Dist: -1,
			Err: fmt.Errorf("serve: pair (%d, %d) out of range [0, %d)", src, dst, c.n)}
		return sc, account{}
	}
	id := obs.QueryID(int32(src), int32(dst))
	tr := c.trace.Sample(int32(src), int32(dst))
	a := account{timed: id&latSampleBit == 0}
	var t0 int64
	if a.timed {
		t0 = time.Now().UnixNano()
	}
	sc, w := c.walk.walk(sc, src, dst, tr)
	if a.timed {
		a.dt = time.Now().UnixNano() - t0
	}
	*res = w.Result
	res.Src, res.Dst, res.Dist = src, dst, -1
	if tr != nil {
		tr.Hops = res.Hops
		tr.Err = res.Err != nil
		tr.Stale = res.Stale()
		c.trace.Done(tr)
	}
	a.clean = w.clean
	if res.Err == nil {
		if c.verify {
			res.Dist = c.walk.trueDist(src, dst, res.Weight)
			if w.clean {
				a.bound = w.scheme.StretchBound(res.Dist)
			}
		}
		c.audit.offer(id, int32(src), int32(dst), res.Weight, w.genID, w.version, w.clean)
	}
	if w.gen != nil {
		w.gen.release()
	}
	return sc, a
}

// add accounts one served query. A delivery is checked against the proved
// stretch bound only when it provably ran clean (always, on Engine); every
// other verified delivery is measured as staleness stretch instead.
func (c *counters) add(r *Result, a account, verified bool) {
	if a.timed {
		c.latCount++
		c.latSum += uint64(a.dt)
		c.latHist[latBucket(a.dt)]++
	}
	if r.Stale() { // only a stale route has overlay interventions to count
		c.deadHits += uint64(r.DeadHits)
		c.detours += uint64(r.Detours)
		c.detourHops += uint64(r.DetourHops)
		if r.Fallback {
			c.fallbacks++
		}
	}
	c.queries++
	if r.Err != nil {
		c.errors++
		return
	}
	c.delivered++
	c.hopsSum += uint64(r.Hops)
	c.hopHist[min(r.Hops, hopBuckets)]++
	switch {
	case !verified:
		c.unverified++
	case a.clean:
		if r.Weight > a.bound+1e-9 {
			c.violations++
		}
		if r.Dist > 0 {
			str := r.Weight / r.Dist
			c.maxStretch = max(c.maxStretch, str)
			c.stretchHist[stretchBucket(str)]++
		}
	default:
		c.stale++
		if r.Dist > 0 {
			str := r.Weight / r.Dist
			c.maxStale = max(c.maxStale, str)
			c.staleHist[stretchBucket(str)]++
		}
	}
}

// stretchBucket maps a stretch value to its histogram bucket.
func stretchBucket(str float64) int {
	b := int((str - 1) / StretchBucketWidth)
	if b < 0 {
		b = 0
	}
	if b > StretchBuckets {
		b = StretchBuckets
	}
	return b
}

// Route serves a single query on the next shard (round robin), recording
// its stats immediately. Scratch comes from a pool, so a warm engine routes
// without allocating.
func (c *core) Route(src, dst graph.Vertex) Result {
	sh := c.shards[c.rr.Add(1)%uint64(len(c.shards))]
	var res Result
	sc, a := c.routeOne(c.spare.Get(), &res, src, dst)
	if sc != nil {
		c.spare.Put(sc)
	}
	sh.mu.Lock()
	sh.st.add(&res, a, c.verify)
	sh.mu.Unlock()
	return res
}

// Query serves a batch: every pair is routed, out[i] receives the outcome
// of pairs[i]. out is allocated when nil or too short; the filled prefix is
// returned. Pairs are split into contiguous blocks, one per shard, and
// dispatched to the persistent shard workers - the same slot-ownership
// discipline as the batched evaluation engine, which makes the per-pair
// results independent of the worker count. With a preallocated out and a
// reuse-capable scheme the steady-state batch path does not allocate.
func (c *core) Query(pairs [][2]graph.Vertex, out []Result) []Result {
	if len(out) < len(pairs) {
		out = make([]Result, len(pairs))
	}
	out = out[:len(pairs)]
	if len(pairs) == 0 {
		return out
	}
	w := min(len(c.shards), len(pairs))
	chunk := (len(pairs) + w - 1) / w
	bs := batchPool.Get().(*batchState)
	bs.failed.Store(false)
	for i := 0; i < w; i++ {
		lo := i * chunk
		hi := min(lo+chunk, len(pairs))
		if lo >= hi {
			break
		}
		bs.wg.Add(1)
		c.dispatch(c.shards[i], batchJob{pairs: pairs[lo:hi], out: out[lo:hi], bs: bs})
	}
	bs.wg.Wait()
	batchPool.Put(bs)
	return out
}

// dispatch hands a job to a shard worker, or serves it inline once the
// core is closed. The closer's read lock makes the closed check and the
// channel send atomic with respect to Close, so a job is never parked on a
// channel no worker will drain.
func (c *core) dispatch(sh *shard, job batchJob) {
	c.cl.mu.RLock()
	if c.cl.closed {
		c.cl.mu.RUnlock()
		w := worker{c: c, sh: sh}
		w.serve(job)
		return
	}
	sh.jobs <- job
	c.cl.mu.RUnlock()
}

// Engine serves route queries for one immutable preprocessed scheme.
type Engine struct {
	*core
	scheme simnet.Scheme
}

// staticWalk is Engine's walker: simnet's hop loop with no edge hook.
type staticWalk struct {
	nw     *simnet.Network
	scheme simnet.Scheme
	paths  graph.PathSource
}

// walk keeps the scheme's packet as its scratch.
func (s *staticWalk) walk(sc any, src, dst graph.Vertex, tr *obs.Trace) (any, walked) {
	r, pkt, err := s.nw.RouteTraced(src, dst, sc, tr)
	if pkt != nil {
		sc = pkt
	}
	// The static engine serves one immutable generation: audit records
	// carry generation 0, version 0, clean.
	return sc, walked{Result: Result{Hops: r.Hops, Weight: r.Weight, HeaderWords: r.HeaderWords, Err: err},
		scheme: s.scheme, clean: true}
}

// trueDist answers from the PathSource row when one was supplied, and
// otherwise proves the distance with the bounded bidirectional kernel.
func (s *staticWalk) trueDist(src, dst graph.Vertex, weight float64) float64 {
	if s.paths != nil {
		return s.paths.Dist(src, dst)
	}
	return s.scheme.Graph().BoundedBidiDist(src, dst, weight)
}

// New builds an engine over a preprocessed scheme and starts one worker
// goroutine per shard. Callers that create engines in a loop should Close
// them; an engine dropped without Close releases its workers when the
// garbage collector collects it.
func New(s simnet.Scheme, o Options) (*Engine, error) {
	var nwOpts []simnet.Option
	if o.MaxHops > 0 {
		nwOpts = append(nwOpts, simnet.WithMaxHops(o.MaxHops))
	}
	walk := &staticWalk{nw: simnet.NewNetwork(s, nwOpts...), scheme: s, paths: o.Paths}
	e := &Engine{scheme: s, core: newCore(&core{walk: walk, n: graph.Vertex(s.Graph().N()),
		verify: o.Verify, failFast: o.FailFast, trace: o.Trace, audit: o.Audit}, o.Workers, o.PinWorkers)}
	if o.Obs != nil {
		e.registerObs(o.Obs)
	}
	if o.Audit != nil {
		o.Audit.start(staticAuditBackend(s, o.FlightRec))
	}
	// Safety net for engines dropped without Close: the workers reference
	// only the core, never the Engine, so the engine becomes unreachable
	// while they are parked and the cleanup can run.
	runtime.AddCleanup(e, func(c *closer) { c.close() }, e.cl)
	return e, nil
}

// Scheme returns the scheme being served.
func (e *Engine) Scheme() simnet.Scheme { return e.scheme }

// mergeFrom folds another shard's counters into c (the caller holds the
// other shard's lock).
func (c *counters) mergeFrom(o *counters) {
	c.queries += o.queries
	c.errors += o.errors
	c.unverified += o.unverified
	c.violations += o.violations
	c.hopsSum += o.hopsSum
	c.delivered += o.delivered
	if o.maxStretch > c.maxStretch {
		c.maxStretch = o.maxStretch
	}
	c.latCount += o.latCount
	c.latSum += o.latSum
	for i := range o.hopHist {
		c.hopHist[i] += o.hopHist[i]
	}
	for i := range o.stretchHist {
		c.stretchHist[i] += o.stretchHist[i]
	}
	for i := range o.latHist {
		c.latHist[i] += o.latHist[i]
	}
	c.deadHits += o.deadHits
	c.detours += o.detours
	c.detourHops += o.detourHops
	c.fallbacks += o.fallbacks
	c.stale += o.stale
	if o.maxStale > c.maxStale {
		c.maxStale = o.maxStale
	}
	for i := range o.staleHist {
		c.staleHist[i] += o.staleHist[i]
	}
}

// finalize turns merged counters into the exported snapshot, deriving the
// QPS and hop quantiles - shared by Engine.Stats and Live.Stats.
func (c *counters) finalize(startNanos int64) Stats {
	st := Stats{
		Queries:         c.queries,
		Errors:          c.errors,
		Unverified:      c.unverified,
		BoundViolations: c.violations,
		Elapsed:         time.Duration(time.Now().UnixNano() - startNanos),
		MaxStretch:      c.maxStretch,
		StretchHist:     c.stretchHist,
	}
	if st.Elapsed > 0 {
		st.QPS = float64(c.queries) / st.Elapsed.Seconds()
	}
	if c.delivered > 0 {
		st.MeanHops = float64(c.hopsSum) / float64(c.delivered)
		st.P50Hops = quantile(c.hopHist[:], c.delivered, 0.50)
		st.P99Hops = quantile(c.hopHist[:], c.delivered, 0.99)
	}
	if c.latCount > 0 {
		st.LatencySamples = c.latCount
		st.P50Latency = time.Duration(latBoundNs(quantile(c.latHist[:], c.latCount, 0.50)))
		st.P99Latency = time.Duration(latBoundNs(quantile(c.latHist[:], c.latCount, 0.99)))
	}
	return st
}

// Stats merges the shard counters into one snapshot. Counters are exact
// whenever no Query batch is in flight; during a batch they may lag the
// newest routes by up to statsChunk queries per shard.
func (e *Engine) Stats() Stats {
	m := e.merged()
	return m.finalize(e.start.Load())
}

// merged folds every shard's counters into one block.
func (c *core) merged() counters {
	var m counters
	for _, sh := range c.shards {
		sh.mu.Lock()
		m.mergeFrom(&sh.st)
		sh.mu.Unlock()
	}
	return m
}

// ResetStats zeroes every shard's counters and restarts the QPS clock (on
// Live, the rebuild/swap lifecycle counters are engine-lifetime and
// survive).
func (c *core) ResetStats() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.st = counters{}
		sh.mu.Unlock()
	}
	c.start.Store(time.Now().UnixNano())
}

// quantile returns the nearest-rank q-quantile of a histogram: the smallest
// bucket index h such that at least ceil(q*total) observations fall in
// buckets [0, h]. The ceiling matters - with floor, p99 of 10 samples would
// target rank 9 and miss the maximum.
func quantile(hist []uint64, total uint64, q float64) int {
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for h, c := range hist {
		cum += c
		if cum >= target {
			return h
		}
	}
	return len(hist) - 1
}
