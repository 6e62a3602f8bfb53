// Command routeserve loads a scheme snapshot (written by routebench -save
// or compactroute.SaveScheme) and serves route and distance queries from it
// - the online half of the build-once / serve-forever split the snapshot
// subsystem exists for.
//
// Usage:
//
//	routeserve -snapshot thm11.snap [-workers 0] [-verify] [-json]
//	           [-mem-budget 256] [-listen addr]
//	routeserve -snapshot thm11.snap -live [-eps 0.5] [-tz-k 2] ...
//	routeserve -snapshot thm11.snap -loadgen [-queries 100000] [-batch 4096]
//	           [-seed 2015] [-workers 0] [-verify] [-json]
//
// In server mode, commands are read line by line from stdin (or from each
// TCP connection when -listen is given):
//
//	route U V    route a packet from U to V
//	dist U V     true shortest-path distance (computed on demand, cached)
//	stats        live serving statistics (QPS, hop quantiles, stretch)
//	trace [N]    dump the last N sampled route traces as JSON (-trace-sample)
//	quit         close the session
//
// Clients may pipeline. Every command but quit gets exactly one reply line
// (an "err" line if it is malformed), in the order the commands were sent.
// Replies are buffered and flushed whenever no complete command is left in
// the input buffer, so a burst of pipelined lines costs one write, while a
// lone command, or one followed by a partial line, is answered at once.
// Lines end in LF or CRLF and are at most 64 KiB long; a longer line ends
// the session.
//
// With -live the snapshot is served through the churn-tolerant live engine
// (a snapshot carrying an overlay journal, written by SaveLiveState,
// restores its churned state), and the protocol gains admin commands:
//
//	addedge U V W   insert the edge {U, V} with weight W
//	deledge U V     delete the edge {U, V}
//	setw U V W      change the weight of {U, V} to W
//	rebuild         rebuild the scheme for the churned graph and hot-swap
//	repair          incrementally repair the scheme in place (dirty-set
//	                invalidation; Theorem 11 schemes built by this process)
//	refresh         policy-driven: repair small deltas, rebuild large ones
//
// Queries keep flowing during churn (dead edges are detoured around,
// reported as measured staleness stretch in stats) and during a rebuild
// (the swap is one atomic pointer flip). -eps/-seed/-tz-k parameterize the
// rebuild constructor; dist reports distances in the *effective* (churned)
// graph.
//
// With -admin-addr the process additionally serves an HTTP admin surface:
// /metrics (Prometheus text exposition of every serving, churn and snapshot
// metric), /metrics.json, /healthz (snapshot fingerprint + serving
// generation), /trace?n=K (sampled route traces) and /debug/pprof/*. The
// stats command and /metrics read the same registry, so the line protocol
// and a scrape can never disagree. -trace-sample enables deterministic
// hash-based per-query tracing (the same query IDs are picked on every run
// at any worker count); -hold keeps a -loadgen process alive after the run
// so its endpoints can be scraped.
//
// -audit-sample attaches the online route auditor: the same deterministic
// hash sample of delivered queries is shadow-verified off the hot path by
// -audit-workers background workers using the bounded bidirectional kernel,
// publishing the compactroute_audit_* instruments (verified / violation /
// stale counts, minimum bound headroom, windowed stretch drift, lag and
// backlog). Every serving mode also carries a flight recorder - a fixed ring
// of notable events (audited violations with route and trace, edge updates,
// rebuild/repair/swap/retire transitions) served at /debug/flightrec;
// -flightrec PATH arms it to auto-dump the ring to PATH as JSON on the first
// audited violation or drift breach.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops accepting,
// answers and flushes the batch of commands each session is serving, writes
// a final stats line after them and exits 0.
//
// Responses are single lines, JSON objects under -json. With -verify every
// route response also carries the true distance and observed stretch, and
// deliveries are checked against the scheme's proved stretch bound.
//
// In -loadgen mode, routeserve is its own closed-loop benchmark client: it
// samples -queries random pairs, serves them in batches of -batch across
// -workers shards, and prints a throughput/quality summary - the harness
// behind experiment E13 (see EXPERIMENTS.md).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unicode"
	"unicode/utf8"

	"compactroute"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "routeserve:", err)
		os.Exit(1)
	}
}

// server bundles the loaded scheme, the query engine and the lazy distance
// source one serving process holds. In -live mode the plain engine is
// replaced by the churn-tolerant live engine.
type server struct {
	scheme   compactroute.Scheme // static mode; live mode reads currentScheme
	eng      *compactroute.ServeEngine
	live     *compactroute.LiveEngine
	paths    compactroute.PathSource
	reg      *compactroute.MetricsRegistry
	sink     *compactroute.TraceSink
	audit    *compactroute.RouteAuditor
	flight   *compactroute.FlightRecorder
	verify   bool
	jsonMode bool
	snapSize int64
}

// currentScheme returns the scheme being served. In live mode it is read
// through the engine's generation pointer on every call: a rebuild on one
// connection hot-swaps it while other connections keep serving, so the
// server must never cache it in a plain field.
func (s *server) currentScheme() compactroute.Scheme {
	if s.live != nil {
		return s.live.Scheme()
	}
	return s.scheme
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("routeserve", flag.ContinueOnError)
	var (
		snapshot = fs.String("snapshot", "", "scheme snapshot file to serve (required)")
		workers  = fs.Int("workers", 0, "serving shards (0 = all cores)")
		verify   = fs.Bool("verify", false, "verify every delivery against the proved stretch bound")
		jsonMode = fs.Bool("json", false, "emit JSON responses and summaries")
		budget   = fs.Int("mem-budget", 256, "distance row-cache budget in MiB (dist command, -verify, rebuilds)")
		listen   = fs.String("listen", "", "serve the line protocol on this TCP address instead of stdin")
		liveMode = fs.Bool("live", false, "serve through the live engine: admin commands (addedge/deledge/setw/rebuild), staleness-aware stats")
		eps      = fs.Float64("eps", 0.5, "live: epsilon of the rebuild constructor")
		tzK      = fs.Int("tz-k", 2, "live: k of the rebuild constructor for Thorup-Zwick snapshots")
		loadgen  = fs.Bool("loadgen", false, "run the closed-loop load generator instead of serving")
		queries  = fs.Int("queries", 100000, "loadgen: total queries to serve")
		batch    = fs.Int("batch", 4096, "loadgen: queries per batch")
		seed     = fs.Int64("seed", 2015, "loadgen pair-sampling seed; live rebuild seed")

		adminAddr = fs.String("admin-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this HTTP address")
		traceRate = fs.Float64("trace-sample", 0, "fraction of queries to trace (deterministic hash sample; 0 disables)")
		traceBuf  = fs.Int("trace-buf", 256, "completed traces kept for the trace command and /trace")
		hold      = fs.Bool("hold", false, "loadgen: stay up (admin endpoints scrapeable) after the run until SIGINT/SIGTERM")

		auditRate    = fs.Float64("audit-sample", 0, "fraction of delivered queries to shadow-verify off the hot path (deterministic hash sample; 0 disables)")
		auditWorkers = fs.Int("audit-workers", 1, "background shadow-verification workers for -audit-sample")
		flightPath   = fs.String("flightrec", "", "arm the flight recorder: auto-dump its event ring to this JSON file on the first audited violation or drift breach")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" {
		return errors.New("-snapshot is required")
	}
	if *liveMode && *loadgen {
		return errors.New("-live and -loadgen are mutually exclusive")
	}
	st, err := os.Stat(*snapshot)
	if err != nil {
		return err
	}
	// Every serving mode carries the obs registry: the engines register their
	// statistics on it, the stats command formats from it, and -admin-addr
	// exposes it. The load observer goes in before the snapshot load below so
	// the startup load lands in the snapshot gauges.
	srv := &server{verify: *verify, jsonMode: *jsonMode, snapSize: st.Size()}
	srv.reg = compactroute.NewMetricsRegistry()
	srv.sink = compactroute.NewTraceSink(*traceRate, *traceBuf)
	srv.sink.Register(srv.reg)
	// Every serving mode carries a flight recorder (the ring costs nothing
	// until something records into it); -flightrec arms the auto-dump. The
	// auditor only exists when sampling is on - its workers belong to the
	// engine, which starts them when the options carry a non-nil auditor.
	srv.flight = compactroute.NewFlightRecorder(512)
	srv.flight.Register(srv.reg)
	if *flightPath != "" {
		srv.flight.Arm(*flightPath)
	}
	if *auditRate > 0 {
		srv.audit = compactroute.NewRouteAuditor(*auditRate, *auditWorkers, 8192)
		srv.audit.Register(srv.reg)
		defer srv.audit.Close()
	}
	defer registerLoadMetrics(srv.reg)()
	if *liveMode {
		opts := compactroute.LiveServeOptions{Workers: *workers, Verify: *verify,
			Obs: srv.reg, Trace: srv.sink, Audit: srv.audit, FlightRec: srv.flight}
		// The rebuild recipe is derived from the snapshot kind; a kind
		// without one only disables the rebuild command.
		kind, err := compactroute.PeekSnapshotKind(*snapshot)
		if err != nil {
			return err
		}
		schemeOpts := compactroute.Options{Eps: *eps, Seed: *seed, K: *tzK}
		// Kinds with a repair recipe get the coupled build+repair pair (a
		// rebuild through it re-arms in-place repair for later deltas);
		// everything else falls back to the plain rebuild recipe.
		if build, repair, err := compactroute.RepairFuncFor(kind, schemeOpts, *budget); err == nil {
			opts.Build, opts.Repair = build, repair
		} else if build, err := compactroute.RebuildFuncFor(kind, schemeOpts, *budget); err == nil {
			opts.Build = build
		}
		l, err := compactroute.LoadLiveStateFile(*snapshot, opts)
		if err != nil {
			return err
		}
		srv.live = l
		srv.paths = l.Distances()
	} else {
		if err := srv.openStatic(*snapshot, *workers, *budget); err != nil {
			return err
		}
		defer srv.eng.Close()
	}
	if *adminAddr != "" {
		addr, stop, err := srv.startAdmin(*adminAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(out, "# admin on %s\n", addr)
	}
	// Server modes shut down gracefully on SIGINT/SIGTERM: stop accepting,
	// drain in-flight queries, flush a final stats line, exit 0. A held
	// loadgen run reuses the same signals to end the scrape window.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if *loadgen {
		if err := srv.runLoadgen(out, *queries, *batch, *seed); err != nil {
			return err
		}
		if *hold {
			fmt.Fprintln(out, "# holding for scrape; SIGINT/SIGTERM to exit")
			<-sig
		}
		return nil
	}
	if *listen != "" {
		return srv.listenAndServe(*listen, out, sig)
	}
	srv.banner(out)
	// The session and the shutdown path share out; the batch lock keeps the
	// final stats line behind whole, flushed batches of replies.
	lock := new(batchLock)
	done := make(chan error, 1)
	go func() { done <- srv.serveConn(in, out, lock) }()
	select {
	case err := <-done:
		return err
	case <-sig:
		lock.close()
		srv.finalStats(out)
		return nil
	}
}

// openStatic loads the snapshot at path into a static serving engine wired to
// the server's registry, trace sink, auditor and flight recorder. The caller
// closes s.eng.
func (s *server) openStatic(path string, workers, budgetMiB int) error {
	scheme, err := compactroute.LoadSchemeFile(path)
	if err != nil {
		return err
	}
	paths := compactroute.NewLazyAPSP(scheme.Graph(), int64(budgetMiB)<<20)
	opts := compactroute.ServeOptions{Workers: workers, Verify: s.verify,
		Obs: s.reg, Trace: s.sink, Audit: s.audit, FlightRec: s.flight}
	if s.verify {
		opts.Paths = paths
	}
	eng, err := compactroute.NewServeEngine(scheme, opts)
	if err != nil {
		return err
	}
	s.scheme, s.eng, s.paths = scheme, eng, paths
	return nil
}

func (s *server) workers() int {
	if s.live != nil {
		return s.live.Workers()
	}
	return s.eng.Workers()
}

func (s *server) banner(out io.Writer) {
	scheme := s.currentScheme()
	g := scheme.Graph()
	mode := "static"
	if s.live != nil {
		mode = "live"
	}
	fmt.Fprintf(out, "# serving %s (kind %s, %s) on G(n=%d, m=%d): %d workers, %d snapshot bytes, verify=%v\n",
		scheme.Name(), compactroute.SnapshotKind(scheme), mode, g.N(), g.M(),
		s.workers(), s.snapSize, s.verify)
}

// finalStats flushes the shutdown stats line.
func (s *server) finalStats(out io.Writer) {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "# shutdown: ")
	s.writeStats(w, json.NewEncoder(w))
	w.Flush()
}

// listenAndServe accepts TCP connections and speaks the line protocol on
// each until the listener fails or a shutdown signal arrives; on signal it
// stops accepting, unblocks and drains the open sessions, prints the final
// stats line and returns nil.
func (s *server) listenAndServe(addr string, out io.Writer, sig <-chan os.Signal) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# listening on %s\n", l.Addr())
	s.banner(out)
	var (
		mu       sync.Mutex
		open     = map[net.Conn]struct{}{}
		draining bool
		wg       sync.WaitGroup
	)
	acceptDone := make(chan error, 1)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				acceptDone <- err
				return
			}
			mu.Lock()
			if draining {
				mu.Unlock()
				conn.Close()
				continue
			}
			open[conn] = struct{}{}
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					mu.Lock()
					delete(open, conn)
					mu.Unlock()
					conn.Close()
				}()
				_ = s.serveConn(conn, conn, nil)
			}()
		}
	}()
	select {
	case err := <-acceptDone:
		return err
	case <-sig:
		l.Close()
		// Unblock sessions parked in Read; in-flight commands finish first
		// because each batch is served and flushed before the next Read.
		mu.Lock()
		draining = true
		for conn := range open {
			_ = conn.SetReadDeadline(time.Now())
		}
		mu.Unlock()
		wg.Wait()
		s.finalStats(out)
		return nil
	}
}

// routeReply is the JSON shape of a route response. The numeric result
// fields are never omitted: 0 hops / weight 0 (routing to oneself) and
// distance 0 are legitimate answers a client must be able to read.
type routeReply struct {
	Op      string  `json:"op"`
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Hops    int     `json:"hops"`
	Weight  float64 `json:"weight"`
	Header  int     `json:"header"`
	Dist    float64 `json:"dist"`
	Stretch float64 `json:"stretch"`
	// Live-mode extras: a route that crossed a detour or fell back to the
	// exact search is flagged stale.
	Stale    bool   `json:"stale,omitempty"`
	Detours  int    `json:"detours,omitempty"`
	Fallback bool   `json:"fallback,omitempty"`
	Err      string `json:"err,omitempty"`
}

// adminReply is the JSON shape of addedge/deledge/setw/rebuild responses.
type adminReply struct {
	Op         string  `json:"op"`
	Version    uint64  `json:"version,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	TookSec    float64 `json:"took_sec,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// maxLine bounds one protocol line, newline included; a longer line ends the
// session with bufio.ErrTooLong. It also sizes each session's input and
// output buffers.
const maxLine = 64 * 1024

// maxFields is one more than the longest command takes (addedge U V W), so a
// line with too many fields still reads as too many.
const maxFields = 5

// routeReplyMax bounds a text route reply for all but extreme weights. The
// reply is formatted in place in the writer's free space, which is flushed
// first when less than this is left.
const routeReplyMax = 256

// errShutdown ends a session that finds its output closed by shutdown.
var errShutdown = errors.New("server shutting down")

// batchLock orders a session's replies against a shutdown path that writes
// to the same output (stdin mode). The session holds it from taking a batch's
// first command until the batch's replies are flushed; shutdown closes it,
// so the final stats line follows whole batches and nothing follows it. A nil
// *batchLock (a TCP connection owns its output) does nothing.
type batchLock struct {
	mu     sync.Mutex
	closed bool
}

// acquire takes the lock; it reports false, without holding it, once the
// lock is closed.
func (l *batchLock) acquire() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	return true
}

func (l *batchLock) release() {
	if l != nil {
		l.mu.Unlock()
	}
}

// close waits for the batch in progress to be flushed and ends the session's
// output for good.
func (l *batchLock) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// serveConn runs the line protocol until EOF or "quit". Malformed commands
// produce an error line and the session continues. Replies are flushed only
// when no complete command is left in the input buffer: a pipelined batch
// costs one write, and a lone command, or one followed by a partial line, is
// answered at once. lock, if non-nil, is held while a batch is served.
func (s *server) serveConn(in io.Reader, out io.Writer, lock *batchLock) error {
	r := bufio.NewReaderSize(in, maxLine)
	w := bufio.NewWriterSize(out, maxLine)
	enc := json.NewEncoder(w)
	var buf [maxFields][]byte
	held := false
	for {
		line, err := r.ReadSlice('\n')
		if err != nil && err != io.EOF {
			// An overlong line, or one cut short by a read error, is not a
			// command; the final line before EOF is, newline or not.
			line = nil
		}
		quit := false
		if fields := splitFields(line, &buf); len(fields) > 0 {
			if !held && !lock.acquire() {
				return errShutdown
			}
			held = true
			quit = s.serveCommand(w, enc, fields)
		}
		if held && (quit || err != nil || !lineBuffered(r)) {
			ferr := w.Flush()
			lock.release()
			held = false
			if ferr != nil {
				return ferr
			}
		}
		switch {
		case quit || err == io.EOF:
			return nil
		case err == bufio.ErrBufferFull:
			return bufio.ErrTooLong
		case err != nil:
			return err
		}
	}
}

// lineBuffered reports whether r holds a complete line, so that the next
// ReadSlice returns without reading.
func lineBuffered(r *bufio.Reader) bool {
	buf, _ := r.Peek(r.Buffered())
	return bytes.IndexByte(buf, '\n') >= 0
}

// splitFields splits line around runs of white space, as strings.Fields does,
// into dst without allocating. A line with more than len(dst) fields yields
// the first len(dst); no command takes that many.
func splitFields(line []byte, dst *[maxFields][]byte) [][]byte {
	fields := dst[:0]
	for i := 0; i < len(line) && len(fields) < len(dst); {
		if sp, size := spaceAt(line, i); sp {
			i += size
			continue
		}
		start := i
		for i < len(line) {
			sp, size := spaceAt(line, i)
			if sp {
				break
			}
			i += size
		}
		fields = append(fields, line[start:i])
	}
	return fields
}

// spaceAt reports whether the rune at b[i] is white space, and its width.
func spaceAt(b []byte, i int) (bool, int) {
	r, size := rune(b[i]), 1
	if r >= utf8.RuneSelf {
		r, size = utf8.DecodeRune(b[i:])
	}
	return unicode.IsSpace(r), size
}

// serveCommand executes one protocol command; it reports whether the
// session asked to close.
func (s *server) serveCommand(w *bufio.Writer, enc *json.Encoder, fields [][]byte) (quit bool) {
	n := s.currentScheme().Graph().N()
	switch string(fields[0]) {
	case "quit", "exit":
		return true
	case "stats":
		s.writeStats(w, enc)
	case "trace":
		nTr := 16
		if len(fields) == 2 {
			v, ok := atoi(fields[1])
			if !ok || v < 1 {
				s.errLine(w, enc, "trace", fmt.Errorf("bad count %q", fields[1]))
				break
			}
			nTr = v
		} else if len(fields) > 2 {
			s.errLine(w, enc, "trace", errors.New("want: trace [N]"))
			break
		}
		_ = s.sink.WriteJSON(w, nTr)
	case "route":
		u, v, err := parsePair(fields, n)
		if err != nil {
			s.errLine(w, enc, "route", err)
			break
		}
		s.serveRoute(w, enc, u, v)
	case "dist":
		u, v, err := parsePair(fields, n)
		if err != nil {
			s.errLine(w, enc, "dist", err)
			break
		}
		d := s.paths.Dist(u, v)
		if s.jsonMode {
			// JSON has no +Inf; an unreachable pair is reported as
			// dist -1 with an explicit marker (encoding Inf would
			// make Encode fail and the client would get no reply).
			rep := routeReply{Op: "dist", Src: int(u), Dst: int(v), Dist: d}
			if math.IsInf(d, 1) {
				rep.Dist = -1
				rep.Err = "unreachable"
			}
			_ = enc.Encode(rep)
		} else {
			fmt.Fprintf(w, "dist %d %d %g\n", u, v, d)
		}
	case "addedge", "deledge", "setw", "rebuild", "repair", "refresh":
		cmd := string(fields[0])
		if s.live == nil {
			s.errLine(w, enc, cmd, errors.New("admin commands need -live"))
			break
		}
		s.serveAdmin(w, enc, cmd, fields)
	default:
		s.errLine(w, enc, string(fields[0]), fmt.Errorf("unknown command (want route | dist | stats | trace | addedge | deledge | setw | rebuild | repair | refresh | quit)"))
	}
	return false
}

func (s *server) serveRoute(w *bufio.Writer, enc *json.Encoder, u, v compactroute.Vertex) {
	var res compactroute.ServeResult
	if s.live != nil {
		res = s.live.Route(u, v)
	} else {
		res = s.eng.Route(u, v)
	}
	if res.Err != nil {
		s.errLine(w, enc, "route", res.Err)
		return
	}
	if s.jsonMode {
		rep := routeReply{Op: "route", Src: int(u), Dst: int(v), Hops: res.Hops,
			Weight: res.Weight, Header: res.HeaderWords,
			Stale: res.Stale(), Detours: res.Detours, Fallback: res.Fallback}
		if s.verify {
			rep.Dist = res.Dist
		}
		if s.verify && rep.Dist > 0 {
			rep.Stretch = rep.Weight / rep.Dist
		}
		_ = enc.Encode(rep)
		return
	}
	// A write error sticks in w; the batch's flush in serveConn reports it
	// and ends the session.
	if w.Available() < routeReplyMax {
		_ = w.Flush()
	}
	_, _ = w.Write(appendRouteText(w.AvailableBuffer(), u, v, &res, s.verify))
}

// appendRouteText appends the text route reply, byte for byte what
//
//	"route %d %d hops=%d weight=%g header=%d"
//	+ " dist=%g" + " stretch=%.3f" (with verify; stretch only for dist > 0)
//	+ " stale=1 detours=%d fallback=%v" (stale routes only) + "\n"
//
// formats, without fmt.
func appendRouteText(b []byte, u, v compactroute.Vertex, res *compactroute.ServeResult, verify bool) []byte {
	b = append(b, "route "...)
	b = strconv.AppendInt(b, int64(u), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(v), 10)
	b = append(b, " hops="...)
	b = strconv.AppendInt(b, int64(res.Hops), 10)
	b = append(b, " weight="...)
	b = strconv.AppendFloat(b, res.Weight, 'g', -1, 64)
	b = append(b, " header="...)
	b = strconv.AppendInt(b, int64(res.HeaderWords), 10)
	if verify {
		b = append(b, " dist="...)
		b = strconv.AppendFloat(b, res.Dist, 'g', -1, 64)
		if res.Dist > 0 {
			b = append(b, " stretch="...)
			b = strconv.AppendFloat(b, res.Weight/res.Dist, 'f', 3, 64)
		}
	}
	if res.Stale() {
		b = append(b, " stale=1 detours="...)
		b = strconv.AppendInt(b, int64(res.Detours), 10)
		b = append(b, " fallback="...)
		b = strconv.AppendBool(b, res.Fallback)
	}
	return append(b, '\n')
}

// serveAdmin executes one live-engine admin command.
func (s *server) serveAdmin(w *bufio.Writer, enc *json.Encoder, cmd string, fields [][]byte) {
	n := s.currentScheme().Graph().N()
	switch cmd {
	case "rebuild", "repair", "refresh":
		run := s.live.Rebuild
		switch cmd {
		case "repair":
			run = s.live.Repair
		case "refresh":
			run = s.live.Refresh
		}
		start := time.Now()
		if err := run(); err != nil {
			s.errLine(w, enc, cmd, err)
			return
		}
		took := time.Since(start)
		if s.jsonMode {
			_ = enc.Encode(adminReply{Op: cmd, Generation: s.live.Generation(), TookSec: took.Seconds()})
		} else {
			fmt.Fprintf(w, "ok %s gen=%d took=%s\n", cmd, s.live.Generation(), took.Round(time.Millisecond))
		}
	case "addedge", "setw":
		u, v, wt, err := parseEdgeWeight(fields, n)
		if err != nil {
			s.errLine(w, enc, cmd, err)
			return
		}
		up := compactroute.SetEdgeWeight(u, v, wt)
		if cmd == "addedge" {
			up = compactroute.InsertEdge(u, v, wt)
		}
		s.applyAdmin(w, enc, cmd, up)
	case "deledge":
		u, v, err := parsePair(fields, n)
		if err != nil {
			s.errLine(w, enc, cmd, err)
			return
		}
		s.applyAdmin(w, enc, cmd, compactroute.RemoveEdge(u, v))
	}
}

func (s *server) applyAdmin(w *bufio.Writer, enc *json.Encoder, cmd string, up compactroute.EdgeUpdate) {
	if err := s.live.ApplyUpdates([]compactroute.EdgeUpdate{up}); err != nil {
		s.errLine(w, enc, cmd, err)
		return
	}
	version := s.live.Overlay().Version()
	if s.jsonMode {
		_ = enc.Encode(adminReply{Op: cmd, Version: version})
	} else {
		fmt.Fprintf(w, "ok %s version=%d\n", cmd, version)
	}
}

// writeStats formats the stats reply from the obs registry - the same
// collect pass /metrics scrapes - so the line protocol and the admin surface
// are one source of truth. The line formats are part of the protocol and
// unchanged from the pre-registry implementation.
// auditSegment formats the stats-line audit suffix and the JSON audit block
// from a registry collect pass; both are empty/nil when no auditor is
// attached, so the pinned pre-audit line formats are unchanged.
func (s *server) auditSegment(v map[string]float64) (string, *auditStatsReply) {
	if s.audit == nil {
		return "", nil
	}
	rep := &auditStatsReply{
		Sampled:     uint64(v["compactroute_audit_sampled_total"]),
		Verified:    uint64(v["compactroute_audit_verified_total"]),
		Violations:  uint64(v["compactroute_audit_violations_total"]),
		Stale:       uint64(v["compactroute_audit_stale_total"]),
		Dropped:     uint64(v["compactroute_audit_dropped_total"]),
		Backlog:     int(v["compactroute_audit_backlog"]),
		MinHeadroom: v["compactroute_audit_headroom_min"],
		Drift:       v["compactroute_audit_drift"],
	}
	seg := fmt.Sprintf(" audit(sampled=%d verified=%d viol=%d stale=%d dropped=%d backlog=%d headroom=%.3f drift=%.3f)",
		rep.Sampled, rep.Verified, rep.Violations, rep.Stale, rep.Dropped,
		rep.Backlog, rep.MinHeadroom, rep.Drift)
	return seg, rep
}

func (s *server) writeStats(w *bufio.Writer, enc *json.Encoder) {
	v := s.reg.Values()
	auditSeg, auditRep := s.auditSegment(v)
	base := statsReply{
		Queries:    uint64(v["compactroute_queries_total"]),
		QPS:        v["compactroute_qps"],
		Errors:     uint64(v["compactroute_route_errors_total"]),
		Violations: uint64(v["compactroute_bound_violations_total"]),
		P50Hops:    int(v["compactroute_hops_p50"]),
		P99Hops:    int(v["compactroute_hops_p99"]),
		MeanHops:   v["compactroute_hops_mean"],
		MaxStretch: v["compactroute_stretch_max"],
		Audit:      auditRep,
	}
	if s.live != nil {
		rep := liveStatsReply{
			statsReply:     base,
			Generation:     uint64(v["compactroute_live_generation"]),
			OverlayVersion: uint64(v["compactroute_live_overlay_version"]),
			OverlayDel:     int(v["compactroute_live_overlay_deleted"]),
			OverlayAdd:     int(v["compactroute_live_overlay_inserted"]),
			OverlaySetw:    int(v["compactroute_live_overlay_reweighted"]),
			StaleServed:    uint64(v["compactroute_live_stale_served_total"]),
			MaxStale:       v["compactroute_live_stale_stretch_max"],
			DeadEdgeHits:   uint64(v["compactroute_live_dead_edge_hits_total"]),
			Detours:        uint64(v["compactroute_live_detours_total"]),
			Fallbacks:      uint64(v["compactroute_live_fallbacks_total"]),
			Rebuilds:       uint64(v["compactroute_live_rebuilds_total"]),
			Swaps:          uint64(v["compactroute_live_swaps_total"]),
			Repairs:        uint64(v["compactroute_live_repairs_total"]),
			RepairErrors:   uint64(v["compactroute_live_repair_errors_total"]),
			Escalations:    uint64(v["compactroute_live_escalations_total"]),
			LastRepairSec:  v["compactroute_live_last_repair_seconds"],
			RepairVics:     int(v["compactroute_live_repair_dirty_vicinities"]),
			RepairClusters: int(v["compactroute_live_repair_dirty_clusters"]),
			RepairSeqs:     int(v["compactroute_live_repair_dirty_sequences"]),
			RepairLabels:   int(v["compactroute_live_repair_dirty_labels"]),
		}
		if s.jsonMode {
			_ = enc.Encode(rep)
		} else {
			lastRepair := time.Duration(rep.LastRepairSec * float64(time.Second))
			fmt.Fprintf(w, "stats queries=%d qps=%.0f errors=%d viol=%d hops(p50=%d p99=%d mean=%.2f) stretch(max=%.3f) gen=%d overlay(del=%d add=%d setw=%d v=%d) stale(served=%d max=%.3f) detours=%d fallbacks=%d rebuilds=%d repairs=%d escalations=%d swaps=%d repair(last=%s vics=%d clusters=%d seqs=%d labels=%d)%s\n",
				rep.Queries, rep.QPS, rep.Errors, rep.Violations,
				rep.P50Hops, rep.P99Hops, rep.MeanHops, rep.MaxStretch,
				rep.Generation, rep.OverlayDel, rep.OverlayAdd, rep.OverlaySetw, rep.OverlayVersion,
				rep.StaleServed, rep.MaxStale, rep.Detours, rep.Fallbacks,
				rep.Rebuilds, rep.Repairs, rep.Escalations, rep.Swaps,
				lastRepair.Round(time.Millisecond), rep.RepairVics,
				rep.RepairClusters, rep.RepairSeqs, rep.RepairLabels, auditSeg)
		}
		return
	}
	if s.jsonMode {
		_ = enc.Encode(base)
	} else {
		fmt.Fprintf(w, "stats queries=%d qps=%.0f errors=%d viol=%d hops(p50=%d p99=%d mean=%.2f) stretch(max=%.3f)%s\n",
			base.Queries, base.QPS, base.Errors, base.Violations,
			base.P50Hops, base.P99Hops, base.MeanHops, base.MaxStretch, auditSeg)
	}
}

func (s *server) errLine(w io.Writer, enc *json.Encoder, op string, err error) {
	if s.jsonMode {
		_ = enc.Encode(routeReply{Op: op, Err: err.Error()})
	} else {
		fmt.Fprintf(w, "err %s: %v\n", op, err)
	}
}

func parsePair(fields [][]byte, n int) (u, v compactroute.Vertex, err error) {
	if len(fields) != 3 {
		return 0, 0, fmt.Errorf("want: %s U V", fields[0])
	}
	return parseUV(fields[1], fields[2], n)
}

func parseUV(us, vs []byte, n int) (u, v compactroute.Vertex, err error) {
	ui, ok := atoi(us)
	if !ok {
		return 0, 0, fmt.Errorf("bad vertex %q", us)
	}
	vi, ok := atoi(vs)
	if !ok {
		return 0, 0, fmt.Errorf("bad vertex %q", vs)
	}
	if ui < 0 || ui >= n || vi < 0 || vi >= n {
		return 0, 0, fmt.Errorf("vertex out of range [0,%d)", n)
	}
	return compactroute.Vertex(ui), compactroute.Vertex(vi), nil
}

func parseEdgeWeight(fields [][]byte, n int) (u, v compactroute.Vertex, w float64, err error) {
	if len(fields) != 4 {
		return 0, 0, 0, fmt.Errorf("want: %s U V W", fields[0])
	}
	u, v, err = parseUV(fields[1], fields[2], n)
	if err != nil {
		return 0, 0, 0, err
	}
	w, err = strconv.ParseFloat(string(fields[3]), 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad weight %q", fields[3])
	}
	return u, v, w, nil
}

// atoi parses a decimal int as strconv.Atoi does (an optional sign, then
// digits, rejecting overflow) without making b a string.
func atoi(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(1)<<(strconv.IntSize-1) - 1
	if neg {
		limit++
	}
	var x uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || x > (limit-d)/10 {
			return 0, false
		}
		x = x*10 + d
	}
	if neg {
		return int(-x), true
	}
	return int(x), true
}

// loadgenSummary is the JSON shape of a load-generator run, the record
// format of BENCH_pr4.json.
type loadgenSummary struct {
	Scheme        string  `json:"scheme"`
	Kind          string  `json:"kind"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Workers       int     `json:"workers"`
	Verify        bool    `json:"verify"`
	Queries       uint64  `json:"queries"`
	Errors        uint64  `json:"errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	QPS           float64 `json:"qps"`
	MeanHops      float64 `json:"mean_hops"`
	P50Hops       int     `json:"p50_hops"`
	P99Hops       int     `json:"p99_hops"`
	MaxStretch    float64 `json:"max_stretch"`
	Violations    uint64  `json:"violations"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	TableWords    int64   `json:"table_words"`
	// Audit is present only when -audit-sample attached the route auditor;
	// the run fails on any audited violation, same as synchronous verify.
	Audit *auditStatsReply `json:"audit,omitempty"`
}

type statsReply struct {
	Queries    uint64  `json:"queries"`
	QPS        float64 `json:"qps"`
	Errors     uint64  `json:"errors"`
	Violations uint64  `json:"violations"`
	P50Hops    int     `json:"p50_hops"`
	P99Hops    int     `json:"p99_hops"`
	MeanHops   float64 `json:"mean_hops"`
	MaxStretch float64 `json:"max_stretch"`
	// Audit is present only when -audit-sample attached the route auditor.
	Audit *auditStatsReply `json:"audit,omitempty"`
}

// auditStatsReply is the JSON shape of the auditor segment of a stats reply.
type auditStatsReply struct {
	Sampled     uint64  `json:"sampled"`
	Verified    uint64  `json:"verified"`
	Violations  uint64  `json:"violations"`
	Stale       uint64  `json:"stale"`
	Dropped     uint64  `json:"dropped"`
	Backlog     int     `json:"backlog"`
	MinHeadroom float64 `json:"min_headroom"`
	Drift       float64 `json:"drift"`
}

type liveStatsReply struct {
	statsReply
	Generation     uint64  `json:"generation"`
	OverlayVersion uint64  `json:"overlay_version"`
	OverlayDel     int     `json:"overlay_deleted"`
	OverlayAdd     int     `json:"overlay_inserted"`
	OverlaySetw    int     `json:"overlay_reweighted"`
	StaleServed    uint64  `json:"stale_served"`
	MaxStale       float64 `json:"max_stale_stretch"`
	DeadEdgeHits   uint64  `json:"dead_edge_hits"`
	Detours        uint64  `json:"detours"`
	Fallbacks      uint64  `json:"fallbacks"`
	Rebuilds       uint64  `json:"rebuilds"`
	Swaps          uint64  `json:"swaps"`
	Repairs        uint64  `json:"repairs"`
	RepairErrors   uint64  `json:"repair_errors"`
	Escalations    uint64  `json:"escalations"`
	LastRepairSec  float64 `json:"last_repair_sec"`
	RepairVics     int     `json:"repair_dirty_vicinities"`
	RepairClusters int     `json:"repair_dirty_clusters"`
	RepairSeqs     int     `json:"repair_dirty_seqs"`
	RepairLabels   int     `json:"repair_dirty_labels"`
}

// runLoadgen is the closed-loop benchmark: it serves `queries` sampled
// pairs in batches and reports throughput and quality. It fails (non-zero
// exit) on any routing error or stretch-bound violation, so CI runs double
// as a correctness check.
func (s *server) runLoadgen(out io.Writer, queries, batch int, seed int64) error {
	g := s.scheme.Graph()
	if batch < 1 {
		batch = 1
	}
	pairs := compactroute.SamplePairs(g.N(), queries, seed)
	if len(pairs) == 0 {
		return fmt.Errorf("graph too small to sample pairs")
	}
	buf := make([]compactroute.ServeResult, min(batch, len(pairs)))
	s.eng.ResetStats()
	start := time.Now()
	for lo := 0; lo < len(pairs); lo += batch {
		hi := min(lo+batch, len(pairs))
		for _, res := range s.eng.Query(pairs[lo:hi], buf) {
			if res.Err != nil {
				return fmt.Errorf("loadgen: %w", res.Err)
			}
		}
	}
	elapsed := time.Since(start)
	st := s.eng.Stats()
	var tableWords int64
	for v := 0; v < g.N(); v++ {
		tableWords += int64(s.scheme.TableWords(compactroute.Vertex(v)))
	}
	sum := loadgenSummary{
		Scheme: s.scheme.Name(), Kind: compactroute.SnapshotKind(s.scheme),
		N: g.N(), M: g.M(), Workers: s.eng.Workers(), Verify: s.verify,
		Queries: st.Queries, Errors: st.Errors,
		ElapsedSec: elapsed.Seconds(), QPS: float64(st.Queries) / elapsed.Seconds(),
		MeanHops: st.MeanHops, P50Hops: st.P50Hops, P99Hops: st.P99Hops,
		MaxStretch: st.MaxStretch, Violations: st.BoundViolations,
		SnapshotBytes: s.snapSize, TableWords: tableWords,
	}
	if st.BoundViolations != 0 {
		return fmt.Errorf("loadgen: %d stretch-bound violations over %d queries", st.BoundViolations, st.Queries)
	}
	if s.audit != nil {
		// Drain the audit backlog so the census below is exact, then hold the
		// run to the same standard as synchronous verify: zero violations.
		s.audit.Flush()
		ast := s.audit.Stats()
		sum.Audit = &auditStatsReply{
			Sampled: ast.Sampled, Verified: ast.Verified, Violations: ast.Violations,
			Stale: ast.Stale, Dropped: ast.Dropped, Backlog: ast.Backlog,
			MinHeadroom: ast.MinHeadroom, Drift: ast.Drift,
		}
		if ast.Violations != 0 {
			return fmt.Errorf("loadgen: %d audited bound violations over %d sampled queries", ast.Violations, ast.Sampled)
		}
	}
	if s.jsonMode {
		return json.NewEncoder(out).Encode(sum)
	}
	fmt.Fprintf(out, "# loadgen %s on G(n=%d, m=%d): %d workers, verify=%v\n",
		sum.Scheme, sum.N, sum.M, sum.Workers, sum.Verify)
	fmt.Fprintf(out, "queries=%d elapsed=%.3fs qps=%.0f\n", sum.Queries, sum.ElapsedSec, sum.QPS)
	fmt.Fprintf(out, "hops p50=%d p99=%d mean=%.2f\n", sum.P50Hops, sum.P99Hops, sum.MeanHops)
	fmt.Fprintf(out, "stretch max=%.3f violations=%d\n", sum.MaxStretch, sum.Violations)
	if a := sum.Audit; a != nil {
		fmt.Fprintf(out, "audit sampled=%d verified=%d violations=%d stale=%d dropped=%d headroom=%.3f drift=%.3f\n",
			a.Sampled, a.Verified, a.Violations, a.Stale, a.Dropped, a.MinHeadroom, a.Drift)
	}
	fmt.Fprintf(out, "snapshot bytes=%d table words=%d\n", sum.SnapshotBytes, sum.TableWords)
	return nil
}
