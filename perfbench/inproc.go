package main

import (
	"math/rand"
	"os"
	"time"

	"compactroute"
)

// inproc-thm11: the same kind of snapshot as tcp-thm11, opened with
// OpenSchemeFile into a 1-shard serve.Engine; a closed loop of batched
// Query calls for throughput and a closed loop of single Route calls for
// latency, alternating. No protocol layer: all time is in serve, simnet, scheme5 and the
// table probes.
const (
	inprocN     = 4000
	inprocBatch = 1024
	inprocPairs = 1 << 16
)

func runInproc(cfg config, o *outcome) error {
	loads := observeLoads()
	var setups, builds, saves, maps, decodes []float64
	var bs buildStats
	var sf *compactroute.SchemeFile
	var eng *compactroute.ServeEngine
	defer func() {
		if eng != nil {
			eng.Close()
			sf.Close()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if eng != nil {
			eng.Close()
			sf.Close()
			eng, sf = nil, nil
			releaseMemory()
		}
		path := snapshotPath(cfg, "inproc", rep)
		defer os.Remove(path) // a mapped file stays readable once unlinked
		t0 := time.Now()
		var err error
		if bs, err = buildSnapshot(cfg, inprocN, path); err != nil {
			return err
		}
		if sf, err = compactroute.OpenSchemeFile(path); err != nil {
			return err
		}
		if eng, err = compactroute.NewServeEngine(sf.Scheme, compactroute.ServeOptions{Workers: 1}); err != nil {
			sf.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		lt := loads()
		builds = append(builds, bs.BuildS)
		saves = append(saves, bs.SaveMs)
		maps = append(maps, lt.mapMs)
		decodes = append(decodes, lt.decodeMs)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["build.scheme_s"] = median(builds)
	o.metrics["wire.save_ms"] = median(saves)
	o.metrics["wire.map_ms"] = median(maps)
	o.metrics["wire.decode_ms"] = median(decodes)
	o.metrics["graph.lazy_rows"] = float64(bs.LazyRows)
	o.metrics["wire.snapshot_mb"] = float64(bs.Bytes) / (1 << 20)
	s := sf.Scheme

	pairs := pairStream(rand.New(rand.NewSource(cfg.seed)), inprocN, inprocPairs)
	total := time.Duration(cfg.seconds * float64(time.Second))

	// Rounds, one a second, each a closed loop of batched Query calls for
	// throughput, then a closed loop of single Route calls, each timed less
	// the clock read the timing adds. Alternating spreads both over the run.
	clock := o.metrics["trace.clock_ns"]
	out := make([]compactroute.ServeResult, inprocBatch)
	var routes int64
	var rates, p50s, p90s, p99s []float64
	lat := make([]float64, 0, 1<<17)
	lo, next := 0, 0
	nr := rounds(cfg.seconds)
	for round := 0; round < nr; round++ {
		n, el := 0, time.Duration(0)
		for t0 := time.Now(); el < total*6/10/time.Duration(nr); el = time.Since(t0) {
			batch := pairs[lo : lo+inprocBatch]
			eng.Query(batch, out)
			for i, r := range out {
				if r.Err != nil || r.Hops < 1 {
					o.failed++
					o.fail("query %d->%d: hops=%d err=%v", batch[i][0], batch[i][1], r.Hops, r.Err)
				}
			}
			n += inprocBatch
			if lo += inprocBatch; lo+inprocBatch > len(pairs) {
				lo = 0
			}
		}
		rates = append(rates, float64(n)/el.Seconds())
		routes += int64(n)

		lat = lat[:0]
		for t0 := time.Now(); time.Since(t0) < total*4/10/time.Duration(nr); next++ {
			p := pairs[next%len(pairs)]
			t := time.Now()
			r := eng.Route(p[0], p[1])
			lat = append(lat, (float64(time.Since(t).Nanoseconds())-clock)/1e3)
			if r.Err != nil || r.Hops < 1 {
				o.failed++
				o.fail("route %d->%d: hops=%d err=%v", p[0], p[1], r.Hops, r.Err)
			}
		}
		routes += int64(len(lat))
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		p99s = append(p99s, quantile(lat, 0.99))
	}
	o.metrics["rps"] = calmRate(rates)
	o.metrics["p50_us"] = calmTime(p50s)
	o.metrics["p90_us"] = calmTime(p90s)
	o.metrics["p99_us"] = median(p99s)
	// Resident memory of the serving process once the collector has run:
	// the loaded snapshot and engine, not garbage awaiting collection.
	releaseMemory()
	rss, err := rssMiB("self")
	if err != nil {
		return err
	}
	o.metrics["mem_mb"] = rss
	o.attempted = routes

	// Output checks: the engine's answers on the check sample equal the
	// bare hop loop's and respect the stretch bound.
	var sample [][2]compactroute.Vertex
	for _, p := range pairs {
		if inSample(p) && len(sample) < verifyCap {
			sample = append(sample, p)
		}
	}
	got := eng.Query(sample, nil)
	o.attempted += int64(len(sample))
	nw := compactroute.NewNetwork(s)
	var stretches []float64
	for i, p := range sample {
		want, err := nw.Route(p[0], p[1])
		r := got[i]
		if err != nil || r.Err != nil || r.Hops != want.Hops || r.Weight != want.Weight || r.HeaderWords != want.HeaderWords {
			o.failed++
			o.fail("route %d->%d: engine hops=%d weight=%g header=%d err=%v, hop loop hops=%d weight=%g header=%d err=%v",
				p[0], p[1], r.Hops, r.Weight, r.HeaderWords, r.Err, want.Hops, want.Weight, want.HeaderWords, err)
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
		return layerReplay(cfg, "inproc-thm11", s, pairs, traceBudget(cfg), clock, o)
	}
	return nil
}
