package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"compactroute"
)

// tcp-thm11: routeserve -workers 1 -listen serves a Theorem 11 snapshot of
// G(4000, 16000) over loopback; the benchmark drives it with tcpConns
// connections in rounds, each an open loop at openRate and then a closed
// loop pipelined to pipeDepth per connection.
const (
	tcpN      = 4000
	tcpConns  = 2
	openRate  = 20000.0 // offered req/s over all connections
	pipeDepth = 64
	streamLen = 1 << 19 // pairs drawn per run: open loops from the first half, closed loops from the second
)

// conn is one client connection.
type conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialAll(addr string) ([]*conn, error) {
	cs := make([]*conn, 0, tcpConns)
	for i := 0; i < tcpConns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeAll(cs)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cs = append(cs, &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)})
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		_ = c.c.Close()
	}
}

// appendRequest writes "route U V\n".
func appendRequest(w *bufio.Writer, p [2]compactroute.Vertex) {
	var b [32]byte
	buf := append(b[:0], "route "...)
	buf = strconv.AppendInt(buf, int64(p[0]), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(p[1]), 10)
	buf = append(buf, '\n')
	_, _ = w.Write(buf) // a failed write surfaces at Flush
}

// sampledReply is a reply kept for the in-process comparison.
type sampledReply struct {
	i     int
	reply routeReply
}

// checkReply parses a reply and checks it answers pair p.
func checkReply(line []byte, p [2]compactroute.Vertex) (routeReply, error) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	r, err := parseRouteReply(line)
	if err != nil {
		return r, err
	}
	if r.src != int(p[0]) || r.dst != int(p[1]) || r.hops < 1 || r.weight <= 0 {
		return r, fmt.Errorf("reply %q does not answer route %d %d", clip(line), p[0], p[1])
	}
	return r, nil
}

// phaseResult is one load phase's outcome.
type phaseResult struct {
	sent, answered int64
	failed         int64
	problems       []string
	lat            []float64 // open loop: µs from due time to reply, by request
	late           []float64 // open loop: µs the send ran behind its due time
	samples        []sampledReply
	elapsed        time.Duration
}

func (p *phaseResult) problem(err error) {
	if len(p.problems) < 5 {
		p.problems = append(p.problems, err.Error())
	}
}

// openLoop sends rate requests per second for dur, request i due at
// t0 + i/rate on connection i mod tcpConns, and times each reply from its
// due time. Request i asks for pair offset+i (mod the stream). One writer
// on a locked OS thread sleeps with nanosleep (the Go timer would round
// sub-millisecond waits up to a millisecond).
func openLoop(cs []*conn, pairs [][2]compactroute.Vertex, offset int, rate float64, dur time.Duration) *phaseResult {
	total := int(rate * dur.Seconds())
	res := &phaseResult{lat: make([]float64, total), late: make([]float64, total)}
	period := float64(time.Second) / rate
	t0 := time.Now().Add(5 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(float64(i) * period)) }
	pair := func(i int) int { return (offset + i) % len(pairs) }

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := cs[c]
			_ = cn.c.SetReadDeadline(t0.Add(dur + 10*time.Second))
			var failed int64
			var samples []sampledReply
			var errs []error
			i := c
			for ; i < total; i += tcpConns {
				line, err := cn.r.ReadSlice('\n')
				now := time.Now()
				if err != nil {
					errs = append(errs, fmt.Errorf("open loop read: %w", err))
					break
				}
				res.lat[i] = float64(now.Sub(due(i)).Nanoseconds()) / 1e3
				r, err := checkReply(line, pairs[pair(i)])
				if err != nil {
					res.lat[i] = math.Inf(1) // a failed request misses any latency limit
					failed++
					if len(errs) < 5 {
						errs = append(errs, err)
					}
					continue
				}
				if inSample(pairs[pair(i)]) {
					samples = append(samples, sampledReply{pair(i), r})
				}
			}
			for ; i < total; i += tcpConns { // unanswered after an error
				res.lat[i] = math.Inf(1)
				failed++
			}
			mu.Lock()
			res.failed += failed
			res.samples = append(res.samples, samples...)
			for _, e := range errs {
				res.problem(e)
			}
			mu.Unlock()
		}(c)
	}

	writerDone := make(chan error, 1)
	go func() {
		// The thread keeps its timer slack; it exits with the goroutine.
		runtime.LockOSThread()
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		var werr error
		for i := 0; i < total; {
			now := time.Now()
			if wait := due(i).Sub(now); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait
				continue
			}
			for ; i < total && !due(i).After(now); i++ {
				appendRequest(cs[i%tcpConns].w, pairs[pair(i)])
				res.late[i] = float64(now.Sub(due(i)).Nanoseconds()) / 1e3
			}
			for _, cn := range cs {
				if cn.w.Buffered() > 0 {
					if err := cn.w.Flush(); err != nil && werr == nil {
						werr = fmt.Errorf("open loop write: %w", err)
					}
				}
			}
		}
		writerDone <- werr
	}()
	werr := <-writerDone
	wg.Wait()
	if werr != nil {
		res.problem(werr)
	}
	res.sent = int64(total)
	res.elapsed = time.Since(t0)
	sort.Slice(res.samples, func(a, b int) bool { return res.samples[a].i < res.samples[b].i })
	return res
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// closedLoop keeps pipeDepth requests in flight on every connection for
// dur, then waits for the replies still in flight; pairs are taken from the
// stream starting at offset.
func closedLoop(cs []*conn, pairs [][2]compactroute.Vertex, offset int, dur time.Duration) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(dur)
	for c := range cs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cn := cs[c]
			_ = cn.c.SetReadDeadline(deadline.Add(10 * time.Second))
			var ring [pipeDepth]int
			head, tail, next := 0, 0, offset+c
			var sent, answered, failed int64
			var errs []error
			send := func() {
				i := next % len(pairs)
				next += tcpConns
				appendRequest(cn.w, pairs[i])
				ring[tail%pipeDepth] = i
				tail++
				sent++
			}
			for k := 0; k < pipeDepth; k++ {
				send()
			}
			stopping := false
			for head < tail {
				if cn.r.Buffered() == 0 {
					if err := cn.w.Flush(); err != nil {
						errs = append(errs, fmt.Errorf("closed loop write: %w", err))
						break
					}
				}
				line, err := cn.r.ReadSlice('\n')
				if err != nil {
					errs = append(errs, fmt.Errorf("closed loop read: %w", err))
					break
				}
				i := ring[head%pipeDepth]
				head++
				if _, err := checkReply(line, pairs[i]); err != nil {
					failed++
					if len(errs) < 5 {
						errs = append(errs, err)
					}
				} else {
					answered++
				}
				if head%pipeDepth == 0 {
					stopping = stopping || time.Now().After(deadline)
				}
				if !stopping {
					send()
				}
			}
			failed += int64(tail - head) // unanswered after an error
			mu.Lock()
			res.sent += sent
			res.answered += answered
			res.failed += failed
			for _, e := range errs {
				res.problem(e)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	return res
}

// procDelta accumulates the growth of /proc counters over timed phases.
type procDelta struct{ userS, sysS, syscr, syscw, rchar, wchar float64 }

func (d *procDelta) add(a, b procSample) {
	d.userS += b.cpu.userS - a.cpu.userS
	d.sysS += b.cpu.sysS - a.cpu.sysS
	d.syscr += float64(b.io.syscr - a.io.syscr)
	d.syscw += float64(b.io.syscw - a.io.syscw)
	d.rchar += float64(b.io.rchar - a.io.rchar)
	d.wchar += float64(b.io.wchar - a.io.wchar)
}

// readBoth samples the server's and this process's /proc counters.
func readBoth(pid string) (srv, self procSample, err error) {
	if srv, err = readProc(pid); err != nil {
		return
	}
	self, err = readProc("self")
	return
}

func runTCP(cfg config, o *outcome) error {
	var srv *server
	defer func() {
		if srv != nil {
			_ = srv.stop()
		}
	}()
	var setups, builds, saves, readys []float64
	var bs buildStats
	var path string
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
			srv = nil
		}
		path = snapshotPath(cfg, "tcp", rep)
		defer os.Remove(path) // a mapped file stays readable once unlinked
		t0 := time.Now()
		var err error
		if bs, err = buildSnapshot(cfg, tcpN, path); err != nil {
			return err
		}
		if srv, err = startServer(cfg.routeserv, path); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, bs.BuildS)
		saves = append(saves, bs.SaveMs)
		readys = append(readys, ms(srv.ready))
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["build.scheme_s"] = median(builds)
	o.metrics["wire.save_ms"] = median(saves)
	o.metrics["routeserve.ready_ms"] = median(readys)
	o.metrics["graph.lazy_rows"] = float64(bs.LazyRows)
	o.metrics["wire.snapshot_mb"] = float64(bs.Bytes) / (1 << 20)

	// The served snapshot, opened in process for the output checks.
	loads := observeLoads()
	sf, err := compactroute.OpenSchemeFile(path)
	if err != nil {
		return err
	}
	defer sf.Close()
	lt := loads()
	o.metrics["wire.map_ms"], o.metrics["wire.decode_ms"] = lt.mapMs, lt.decodeMs
	s := sf.Scheme

	pairs := pairStream(rand.New(rand.NewSource(cfg.seed)), tcpN, streamLen)
	cs, err := dialAll(srv.addr)
	if err != nil {
		return err
	}
	defer closeAll(cs)
	// Warm-up, untimed: fault in the server's snapshot pages and start its
	// connection goroutines before anything is measured.
	warm := closedLoop(cs, pairs, streamLen/2, time.Second)
	o.attempted, o.failed = warm.sent, warm.failed
	// The open loops take the stream in order from its start, so the check
	// sample, drawn from their replies, is the same on every run of a seed.
	nextOpen, nextClosed := 0, streamLen/2+int(warm.sent)

	// Two rounds a second, each an open-loop phase then a closed-loop phase,
	// so a slow spell of the host lands on windows of both, not on one whole
	// metric.
	nr := 2 * rounds(cfg.seconds)
	half := time.Duration(cfg.seconds * float64(time.Second) / float64(2*nr))
	var rates, p50s, p90s, lats, late []float64
	var samples []sampledReply
	var srvD, selfD procDelta
	var closedReqs, openSent int64
	var openElapsed time.Duration
	for r := 0; r < nr; r++ {
		open := openLoop(cs, pairs, nextOpen, openRate, half)
		nextOpen += int(open.sent)
		p0, c0, err := readBoth(srv.pid)
		if err != nil {
			return err
		}
		closed := closedLoop(cs, pairs, nextClosed, half)
		p1, c1, err := readBoth(srv.pid)
		if err != nil {
			return err
		}
		nextClosed += int(closed.sent)
		srvD.add(p0, p1)
		selfD.add(c0, c1)
		for _, res := range []*phaseResult{open, closed} {
			o.attempted += res.sent
			o.failed += res.failed
			for _, p := range res.problems {
				o.fail("%s", p)
			}
		}
		rates = append(rates, float64(closed.answered)/closed.elapsed.Seconds())
		p50s = append(p50s, quantile(append([]float64(nil), open.lat...), 0.5))
		p90s = append(p90s, quantile(append([]float64(nil), open.lat...), 0.9))
		lats = append(lats, open.lat...)
		late = append(late, open.late...)
		samples = append(samples, open.samples...)
		closedReqs += closed.answered
		openSent += open.sent
		openElapsed += open.elapsed
	}
	rss, err := peakRSSMiB(srv.pid)
	if err != nil {
		return err
	}

	o.metrics["rps"] = calmRate(rates)
	o.metrics["p50_us"] = calmTime(p50s)
	o.metrics["p90_us"] = calmTime(p90s)
	o.metrics["p99_us"] = quantile(lats, 0.99)
	o.metrics["mem_mb"] = rss
	o.metrics["table_words_mean"] = tableWordsMean(s)
	o.metrics["tcp_open_rate"] = float64(openSent) / openElapsed.Seconds()
	o.metrics["tcp_open_sent"] = float64(openSent)
	o.metrics["tcp_closed_reqs"] = float64(closedReqs)
	o.notes = append(o.notes, fmt.Sprintf("%d rounds; closed-loop req/s by round %.0f; open-loop p50 us by round %.0f", nr, rates, p50s))

	// Per-request costs of the server and the client over the closed loops.
	reqs := float64(closedReqs)
	srvCPU := srvD.userS + srvD.sysS
	o.metrics["routeserve.cpu_us_per_req"] = srvCPU * 1e6 / reqs
	if srvCPU > 0 {
		o.metrics["routeserve.sys_share"] = srvD.sysS / srvCPU
	}
	o.metrics["routeserve.write_syscalls_per_req"] = srvD.syscw / reqs
	o.metrics["routeserve.read_syscalls_per_req"] = srvD.syscr / reqs
	o.metrics["routeserve.bytes_in_per_req"] = srvD.rchar / reqs
	o.metrics["routeserve.bytes_out_per_req"] = srvD.wchar / reqs
	o.metrics["client.cpu_us_per_req"] = (selfD.userS + selfD.sysS) * 1e6 / reqs
	latePct := quantile(late, 0.99)
	o.metrics["client.late_p99_us"] = latePct
	if latePct > 1000 || openElapsed > time.Duration(nr)*half+time.Second {
		o.notes = append(o.notes, fmt.Sprintf("WARNING: open-loop generator fell behind its schedule (late p99 %.0f us, open phases %s for %s planned)",
			latePct, openElapsed.Round(time.Millisecond), time.Duration(nr)*half))
	}

	// Output checks: a deterministic sample of replies must equal the
	// in-process route on the same snapshot and respect the stretch bound.
	nw := compactroute.NewNetwork(s)
	var stretches []float64
	for k, sr := range samples {
		if k == verifyCap {
			break
		}
		p := pairs[sr.i]
		want, err := nw.Route(p[0], p[1])
		if err != nil {
			o.failed++
			o.fail("in-process route %d->%d: %v", p[0], p[1], err)
			continue
		}
		if want.Hops != sr.reply.hops || want.Weight != sr.reply.weight || want.HeaderWords != sr.reply.header {
			o.failed++
			o.fail("route %d->%d: served hops=%d weight=%g header=%d, in process hops=%d weight=%g header=%d",
				p[0], p[1], sr.reply.hops, sr.reply.weight, sr.reply.header, want.Hops, want.Weight, want.HeaderWords)
			continue
		}
		st, err := checkStretch(s, p[0], p[1], sr.reply.weight)
		if err != nil {
			o.failed++
			o.fail("%v", err)
			continue
		}
		stretches = append(stretches, st)
	}
	if len(stretches) == 0 {
		o.fail("no reply was checked against the in-process route")
	}
	o.metrics["stretch_mean"] = mean(stretches)
	o.metrics["verified_pairs"] = float64(len(stretches))

	if cfg.trace {
		if err := layerReplay(cfg, "tcp-thm11", s, pairs[:1<<16], traceBudget(cfg), o.metrics["trace.clock_ns"], o); err != nil {
			return err
		}
	}
	closeAll(cs)
	err = srv.stop()
	srv = nil
	return err
}

// traceBudget is the time the traced run spends on the layer replay.
func traceBudget(cfg config) time.Duration {
	return time.Duration(cfg.seconds * 0.4 * float64(time.Second))
}
