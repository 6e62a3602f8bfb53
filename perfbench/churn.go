package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"compactroute"
	"compactroute/internal/live"
	"compactroute/internal/obs"
)

// churn-thm11: a ServeLive engine serves Theorem 11 on G(2000, 8000), built
// through RepairFuncFor so Refresh repairs in place, with the route auditor
// attached. One goroutine runs Live.Query batches while another applies a
// seeded trace of single-edge deletions and reweights, calling Refresh after
// each and then leaving the engine clean for churnGap, so the auditor has
// clean routes to verify. The reader's figures cover the batches that ran
// while an update was being applied and refreshed. The trace has one update
// per measured second asked for (at least minChurnUpdates), so its length
// is fixed by the arguments.
const (
	churnN          = 2000
	churnGap        = 250 * time.Millisecond
	minChurnUpdates = 4
	churnBatch      = 256
	churnPairs      = 1 << 16
	auditRate       = 1.0 / 64
)

// churnTrace makes count single-edge updates of g: deletions that keep the
// graph connected and reweights to an integer in [1, maxWeight], half each.
// Every update applies cleanly, in order, to a fresh overlay over g.
func churnTrace(g *compactroute.Graph, count int, rng *rand.Rand) ([]compactroute.EdgeUpdate, error) {
	var edges [][2]compactroute.Vertex
	for u := 0; u < g.N(); u++ {
		for p := 0; p < g.Degree(compactroute.Vertex(u)); p++ {
			v, _, _ := g.Endpoint(compactroute.Vertex(u), compactroute.Port(p))
			if int(v) > u {
				edges = append(edges, [2]compactroute.Vertex{compactroute.Vertex(u), v})
			}
		}
	}
	scratch := live.NewOverlay(g)
	dead := map[[2]compactroute.Vertex]bool{}
	var trace []compactroute.EdgeUpdate
	for attempts := 0; len(trace) < count; attempts++ {
		if attempts > 100*count {
			return nil, fmt.Errorf("churn trace: only %d of %d updates found", len(trace), count)
		}
		e := edges[rng.Intn(len(edges))]
		if dead[e] {
			continue
		}
		up := compactroute.SetEdgeWeight(e[0], e[1], float64(1+rng.Intn(maxWeight)))
		if rng.Intn(2) == 0 {
			up = compactroute.RemoveEdge(e[0], e[1])
		}
		if err := scratch.Apply(up); err != nil {
			return nil, fmt.Errorf("churn trace: %w", err)
		}
		if up.Op == live.OpDelEdge {
			if !scratch.Connected() {
				w, _ := g.EdgeWeight(e[0], e[1])
				if err := scratch.Apply(compactroute.InsertEdge(e[0], e[1], w)); err != nil {
					return nil, fmt.Errorf("churn trace revert: %w", err)
				}
				continue
			}
			dead[e] = true
		}
		trace = append(trace, up)
	}
	return trace, nil
}

// liveSetup builds the scheme through the repair recipe and starts a live
// engine with a fresh auditor. It also returns the build time.
func liveSetup(seed int64) (*compactroute.LiveEngine, *compactroute.RouteAuditor, time.Duration, error) {
	g, err := graphFor(churnN, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	build, repair, err := compactroute.RepairFuncFor("thm11/v2", schemeOptions(seed), budgetMiB)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	s, err := build(g)
	if err != nil {
		return nil, nil, 0, err
	}
	took := time.Since(t0)
	aud := compactroute.NewRouteAuditor(auditRate, 1, 8192)
	l, err := compactroute.ServeLive(s, compactroute.LiveServeOptions{
		Workers: 1, Build: build, Repair: repair, Audit: aud})
	if err != nil {
		aud.Close()
		return nil, nil, 0, err
	}
	return l, aud, took, nil
}

// interval is a stretch of time, as offsets from the start of the trace.
type interval struct{ start, end time.Duration }

// besideWrites keeps the batches that lie wholly inside one busy interval.
// It returns each kept batch's end on a clock that runs only inside busy
// intervals, the kept batches' latencies in µs, and the total busy time.
// Both lists are in time order.
func besideWrites(batches, busy []interval) (marks []time.Duration, lat []float64, span time.Duration) {
	k := 0
	for _, b := range batches {
		for k < len(busy) && busy[k].end < b.end {
			span += busy[k].end - busy[k].start
			k++
		}
		if k == len(busy) {
			break
		}
		if b.start >= busy[k].start {
			marks = append(marks, span+b.end-busy[k].start)
			lat = append(lat, float64((b.end-b.start).Nanoseconds())/1e3)
		}
	}
	for ; k < len(busy); k++ {
		span += busy[k].end - busy[k].start
	}
	return marks, lat, span
}

// checkLive counts a Live answer's failure.
func checkLive(o *outcome, r compactroute.LiveResult, p [2]compactroute.Vertex) bool {
	if r.Err != nil || r.Hops < 1 || r.Weight <= 0 {
		o.fail("live route %d->%d: hops=%d weight=%g err=%v", p[0], p[1], r.Hops, r.Weight, r.Err)
		return false
	}
	return true
}

func runChurn(cfg config, o *outcome) error {
	var setups, builds []float64
	var l *compactroute.LiveEngine
	var aud *compactroute.RouteAuditor
	defer func() {
		if aud != nil {
			aud.Close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if aud != nil {
			aud.Close()
			l, aud = nil, nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		var build time.Duration
		if l, aud, build, err = liveSetup(cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, build.Seconds())
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["build.scheme_s"] = median(builds)
	// Resident memory of the set-up engine once the collector has run; the
	// repairs' row caches come and go with the trace.
	releaseMemory()
	rss, err := rssMiB("self")
	if err != nil {
		return err
	}
	o.metrics["mem_mb"] = rss

	rng := rand.New(rand.NewSource(cfg.seed))
	pairs := pairStream(rng, churnN, churnPairs)
	trace, err := churnTrace(l.Scheme().Graph(), max(minChurnUpdates, int(cfg.seconds)), rng)
	if err != nil {
		return err
	}
	out := make([]compactroute.LiveResult, churnBatch)
	if cfg.trace {
		// Live serving on an empty overlay, before any churn.
		var n int
		el := time.Duration(0)
		for t0, lo := time.Now(), 0; el < 500*time.Millisecond; el = time.Since(t0) {
			l.Query(pairs[lo:lo+churnBatch], out)
			n += churnBatch
			lo = (lo + churnBatch) % (len(pairs) - churnBatch)
		}
		o.metrics["live.query_ns_clean"] = float64(el.Nanoseconds()) / float64(n)
	}

	// Repairs and rebuilds run on one core; the reader has the other.
	compactroute.SetParallelism(1)
	a0 := aud.Stats()
	stop := make(chan struct{})
	var (
		wg                       sync.WaitGroup
		routes, stale, fallbacks int64
		detours                  int64
		batches                  []interval
		readFailed               int64
		readerOut                = newOutcome()
	)
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; ; lo = (lo + churnBatch) % (len(pairs) - churnBatch) {
			select {
			case <-stop:
				return
			default:
			}
			batch := pairs[lo : lo+churnBatch]
			start := time.Since(t0)
			l.Query(batch, out)
			batches = append(batches, interval{start, time.Since(t0)})
			for i, r := range out {
				if !checkLive(readerOut, r, batch[i]) {
					readFailed++
				}
				if r.Stale() {
					stale++
					detours += int64(r.Detours)
				}
				if r.Fallback {
					fallbacks++
				}
			}
			routes += churnBatch
		}
	}()

	var applyTotal, refreshTotal, repairTotal, rebuildTotal time.Duration
	var busy []interval // the writer's ApplyUpdates+Refresh intervals
	var writeErr error
	st0 := l.Stats()
	for _, up := range trace {
		before := l.Stats()
		t := time.Now()
		if writeErr = l.ApplyUpdates([]compactroute.EdgeUpdate{up}); writeErr != nil {
			break
		}
		applyTotal += time.Since(t)
		if writeErr = l.Refresh(); writeErr != nil {
			break
		}
		refreshTotal += time.Since(t)
		busy = append(busy, interval{t.Sub(t0), time.Since(t0)})
		after := l.Stats()
		if after.Repairs > before.Repairs {
			repairTotal += after.LastRepair
		}
		if after.Rebuilds > before.Rebuilds {
			rebuildTotal += after.LastRebuild
		}
		time.Sleep(churnGap)
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(t0)
	compactroute.SetParallelism(0)
	if writeErr != nil {
		return fmt.Errorf("apply churn trace: %w", writeErr)
	}
	st1 := l.Stats()
	o.attempted = routes + int64(len(trace))
	o.failed = readFailed
	o.problems = append(o.problems, readerOut.problems...)
	// The end-to-end figures cover the reader's batches that ran wholly while
	// the writer was applying an update and refreshing: reads beside writes.
	marks, lat, span := besideWrites(batches, busy)
	nw := rounds(cfg.seconds)
	rates := windowRates(marks, churnBatch, span, nw)
	p50s := windowQuantiles(lat, 0.5, nw)
	o.metrics["rps"] = calmRate(rates)
	o.metrics["p50_us"] = calmTime(p50s)
	o.metrics["p90_us"] = calmTime(windowQuantiles(lat, 0.9, nw))
	o.metrics["p99_us"] = quantile(lat, 0.99)
	o.notes = append(o.notes, fmt.Sprintf("%d of %d batches beside writes over %s; routes/s by window %.0f; batch p50 us by window %.0f",
		len(lat), len(batches), span.Round(time.Millisecond), rates, p50s))
	o.metrics["churn_updates"] = float64(len(trace))
	o.metrics["live.route_ns"] = float64(elapsed.Nanoseconds()) / float64(routes)
	o.metrics["live.apply_us"] = float64(applyTotal.Nanoseconds()) / 1e3 / float64(len(trace))
	o.metrics["live.refresh_s_total"] = refreshTotal.Seconds()
	o.metrics["live.repair_s_total"] = repairTotal.Seconds()
	o.metrics["live.rebuild_s_total"] = rebuildTotal.Seconds()
	o.metrics["live.escalations"] = float64(st1.Escalations - st0.Escalations)
	o.metrics["live.stale_share"] = float64(stale) / float64(routes)
	o.metrics["live.fallback_share"] = float64(fallbacks) / float64(routes)
	if stale > 0 {
		o.metrics["live.detours_per_stale"] = float64(detours) / float64(stale)
	}

	// The audit census must show no violation and a balanced ledger.
	aud.Flush()
	a1 := aud.Stats()
	if a1.Violations != 0 {
		o.failed++
		o.fail("audit census: %d stretch-bound violations", a1.Violations)
	}
	if a1.Verified+a1.Violations+a1.Stale+a1.Dropped != a1.Sampled {
		o.failed++
		o.fail("audit ledger: verified %d + violations %d + stale %d + dropped %d != sampled %d",
			a1.Verified, a1.Violations, a1.Stale, a1.Dropped, a1.Sampled)
	}
	o.metrics["audit.verified_per_s"] = float64(a1.Verified-a0.Verified) / elapsed.Seconds()
	if a1.Sampled > a0.Sampled {
		o.metrics["audit.dropped_share"] = float64(a1.Dropped-a0.Dropped) / float64(a1.Sampled-a0.Sampled)
	}

	// After the trace every update is folded in: the final generation serves
	// clean routes within the proved bound.
	if !l.Overlay().Empty() {
		o.failed++
		o.fail("overlay holds %d entries after the last Refresh", l.Overlay().Len())
	}
	s := l.Scheme()
	var stretches []float64
	checked := 0
	for _, p := range pairs {
		if !inSample(p) || checked == verifyCap {
			continue
		}
		checked++
		o.attempted++
		r := l.Route(p[0], p[1])
		if !checkLive(o, r, p) || r.Stale() {
			o.failed++
			if r.Stale() {
				o.fail("route %d->%d served stale on a clean generation", p[0], p[1])
			}
			continue
		}
		st, err := checkStretch(s, p[0], p[1], r.Weight)
		if err != nil {
			o.failed++
			o.fail("%v", err)
			continue
		}
		stretches = append(stretches, st)
	}
	o.metrics["stretch_mean"] = mean(stretches)
	o.metrics["verified_pairs"] = float64(len(stretches))
	o.metrics["table_words_mean"] = tableWordsMean(s)

	if cfg.trace {
		// The auditor's kernel, replayed on the pairs of the stream the
		// auditor samples, bounded by their routed weight as the auditor does.
		type audited struct {
			p [2]compactroute.Vertex
			w float64
		}
		var auditedPairs []audited
		thresh := obs.SampleThresh(auditRate)
		for _, p := range pairs {
			if obs.SampleHit(obs.QueryID(int32(p[0]), int32(p[1])), thresh) && len(auditedPairs) < verifyCap {
				auditedPairs = append(auditedPairs, audited{p, l.Route(p[0], p[1]).Weight})
			}
		}
		g := s.Graph()
		var n int
		el := time.Duration(0)
		for t0 := time.Now(); len(auditedPairs) > 0 && el < 200*time.Millisecond; el = time.Since(t0) {
			for _, a := range auditedPairs {
				g.BoundedBidiDist(a.p[0], a.p[1], a.w)
			}
			n += len(auditedPairs)
		}
		if n > 0 {
			o.metrics["audit.bidi_us"] = float64(el.Nanoseconds()) / 1e3 / float64(n)
		}
		return layerReplay(cfg, "churn-thm11", s, pairs, traceBudget(cfg), o.metrics["trace.clock_ns"], o)
	}
	return nil
}
