package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"compactroute"
	"compactroute/internal/simnet"
)

// Layer replay: the traced run times each layer under the serving path from
// outside, on the workload's own scheme and pair stream. Bulk loops give
// per-call costs without clock reads inside them; a deterministic sample of
// routes is re-walked hop by hop with a span around every call, for the
// per-phase costs a bulk loop cannot separate.

// phaseNames are the obs.Phase names Theorem 11 reports.
var phaseNames = []string{"vicinity", "to_landmark", "sequence", "tree"}

// probeSink keeps the replayed probes' results alive.
var probeSink int

// hop is one recorded forwarding step of the sampled walks.
type hop struct {
	at, next compactroute.Vertex
	port     compactroute.Port
	phase    string
}

// layerReplay fills the serve, simnet, scheme5, graph, vicinity and trace
// metrics, spending about budget on the timed loops.
func layerReplay(cfg config, name string, s compactroute.Scheme, pairs [][2]compactroute.Vertex, budget time.Duration, clock float64, o *outcome) error {
	slice := budget / 4

	// Hop loop: simnet.Network.RouteReuse, untraced.
	nw := compactroute.NewNetwork(s)
	hops := make([]float64, 0, len(pairs))
	headerMax := 0
	var scratch simnet.Packet
	for _, p := range pairs {
		res, pkt, err := nw.RouteReuse(p[0], p[1], scratch)
		if err != nil {
			return fmt.Errorf("simnet route %d->%d: %w", p[0], p[1], err)
		}
		scratch = pkt
		hops = append(hops, float64(res.Hops))
		headerMax = max(headerMax, res.HeaderWords)
	}
	o.metrics["simnet.hops_mean"] = mean(hops)
	o.metrics["simnet.hops_p99"] = quantile(hops, 0.99)
	o.metrics["simnet.header_words_max"] = float64(headerMax)
	routeLoop := func(ps [][2]compactroute.Vertex, d time.Duration) float64 {
		n, el := 0, time.Duration(0)
		for t0 := time.Now(); el < d; el = time.Since(t0) {
			for j := 0; j < 256; j++ {
				p := ps[n%len(ps)]
				_, scratch, _ = nw.RouteReuse(p[0], p[1], scratch)
				n++
			}
		}
		return float64(el.Nanoseconds()) / float64(n)
	}

	// Engine: a 1-shard serve.Engine, batched Query and single Route.
	eng, err := compactroute.NewServeEngine(s, compactroute.ServeOptions{Workers: 1})
	if err != nil {
		return err
	}
	defer eng.Close()
	const batch = 1024
	out := make([]compactroute.ServeResult, batch)
	lo, queried := 0, 0
	queryLoop := func(d time.Duration) float64 {
		n, el := 0, time.Duration(0)
		for t0 := time.Now(); el < d; el = time.Since(t0) {
			eng.Query(pairs[lo:lo+batch], out)
			n += batch
			if lo += batch; lo+batch > len(pairs) {
				lo = 0
			}
		}
		queried += n
		return float64(el.Nanoseconds()) / float64(n)
	}
	eng.Query(pairs[:batch], out) // warm the shard and its scratch packets

	// The hop loop and the engine alternate in rounds, so the machine's
	// drift hits both alike; the engine's own cost is the median of the
	// paired differences.
	const rounds = 8
	var simNs, qNs, diffs []float64
	var m0, m1 runtime.MemStats
	var mallocs uint64
	for r := 0; r < rounds; r++ {
		sn := routeLoop(pairs, slice/rounds)
		runtime.ReadMemStats(&m0)
		qn := queryLoop(slice / rounds)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		simNs, qNs, diffs = append(simNs, sn), append(qNs, qn), append(diffs, qn-sn)
	}
	o.metrics["simnet.route_ns"] = median(simNs)
	o.metrics["serve.query_ns_per_route"] = median(qNs)
	o.metrics["serve.dispatch_ns_per_route"] = median(diffs)
	o.metrics["serve.allocs_per_route"] = float64(mallocs) / float64(queried)
	lat := make([]float64, 0, 1<<16)
	for t0, i := time.Now(), 0; time.Since(t0) < slice/2; i++ {
		p := pairs[i%len(pairs)]
		t := time.Now()
		eng.Route(p[0], p[1])
		lat = append(lat, float64(time.Since(t).Nanoseconds())-clock)
	}
	o.metrics["serve.route_p99_ns"] = quantile(lat, 0.99)

	// Hop-level spans on a deterministic sample, then probe replays over
	// the recorded hop stream.
	rs, ok := s.(simnet.ReusableScheme)
	phaser, ok2 := s.(simnet.PhaseReporter)
	if !ok || !ok2 {
		return fmt.Errorf("scheme %s lacks PrepareInto or RoutePhase", s.Name())
	}
	g := s.Graph()
	rec := newSpanRecorder(1 << 18)
	var stream []hop
	var sampled [][2]compactroute.Vertex
	for _, p := range pairs {
		if inSample(p) {
			sampled = append(sampled, p)
		}
	}
	if len(sampled) == 0 {
		return fmt.Errorf("empty trace sample")
	}
	// Each sampled pair is walked up to traceWalks times, within the slice.
	const traceWalks = 4
	walked := 0
	var nextName [256]string // span name per phase, built once
	for t0 := time.Now(); walked < traceWalks*len(sampled) && time.Since(t0) < slice; {
		p := sampled[walked%len(sampled)]
		record := walked < len(sampled)
		req := int32(walked)
		root := rec.begin("request", -1, req)
		sp := rec.begin("prepare", root, req)
		pkt, err := rs.PrepareInto(scratch, p[0], p[1])
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("prepare %d->%d: %w", p[0], p[1], err)
		}
		scratch = pkt
		at := p[0]
		for h := 0; ; h++ {
			phase := phaser.RoutePhase(pkt)
			if nextName[phase] == "" {
				nextName[phase] = "next." + phase.String()
			}
			sp := rec.begin(nextName[phase], root, req)
			d, err := rs.Next(at, pkt)
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("next at %d (%d->%d): %w", at, p[0], p[1], err)
			}
			if d.Deliver {
				break
			}
			nx, _, _ := g.Endpoint(at, d.Port)
			if record {
				stream = append(stream, hop{at: at, next: nx, port: d.Port, phase: phase.String()})
			}
			at = nx
			if h > 8*g.N() {
				return fmt.Errorf("traced walk %d->%d does not deliver", p[0], p[1])
			}
		}
		rec.end(root)
		walked++
	}
	// The walks' own wall time, spans included, against the untraced hop
	// loop on the same pairs.
	tracedNs := float64(rec.spans[len(rec.spans)-1].end-rec.spans[0].start) / float64(walked)
	untracedNs := routeLoop(sampled, slice/4)
	o.metrics["trace.route_rps"] = 1e9 / tracedNs
	o.metrics["trace.overhead_share"] = 1 - untracedNs/tracedNs
	o.metrics["trace.spans"] = float64(len(rec.spans))

	self := selfTimes(rec.spans, clock)
	byName := meanSelfByName(rec.spans, self)
	o.metrics["scheme5.prepare_ns"] = byName["prepare"]
	phaseHops := map[string]int{}
	for _, h := range stream {
		phaseHops[h.phase]++
	}
	for _, ph := range phaseNames {
		o.metrics["scheme5.next_ns."+ph] = byName["next."+ph]
		o.metrics["scheme5.hops_share."+ph] = float64(phaseHops[ph]) / float64(len(stream))
	}

	// PortTo is the vicinity phase's probe: replay it on those hops.
	var vic []hop
	for _, h := range stream {
		if h.phase == "vicinity" {
			vic = append(vic, h)
		}
	}
	probe := func(hs []hop, fn func(h hop) int) float64 {
		if len(hs) == 0 {
			return 0
		}
		n, el := 0, time.Duration(0)
		for t0 := time.Now(); el < slice/4; el = time.Since(t0) {
			for _, h := range hs {
				probeSink += fn(h)
			}
			n += len(hs)
		}
		return float64(el.Nanoseconds()) / float64(n)
	}
	for _, h := range vic {
		if g.PortTo(h.at, h.next) != h.port {
			return fmt.Errorf("PortTo(%d,%d) disagrees with the walked port %d", h.at, h.next, h.port)
		}
	}
	o.metrics["graph.portto_ns"] = probe(vic, func(h hop) int { return int(g.PortTo(h.at, h.next)) })
	o.metrics["graph.endpoint_ns"] = probe(stream, func(h hop) int {
		v, _, _ := g.Endpoint(h.at, h.port)
		return int(v)
	})
	o.metrics["vicinity.lookup_ns"] = o.metrics["scheme5.next_ns.vicinity"] - o.metrics["graph.portto_ns"]
	return writeSpans(cfg, name, rec)
}

// writeSpans writes the recorded spans out as tab-separated lines:
// name, start ns, end ns, parent index, request id.
func writeSpans(cfg config, name string, rec *spanRecorder) error {
	path := fmt.Sprintf("%s/spans-%s.tsv", cfg.workdir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range rec.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
