package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"compactroute"
)

// writeSnapshot builds a small Theorem 11 scheme and saves it to a temp
// file, returning the path and the scheme's graph size.
func writeSnapshot(t testing.TB) (path string, n int) {
	t.Helper()
	n = 72
	g, err := compactroute.GNM(n, 4*n, 2015, true, 16)
	if err != nil {
		t.Fatal(err)
	}
	ps := compactroute.AllPairs(g)
	s, err := compactroute.NewTheorem11(g, ps, compactroute.Options{Eps: 0.5, Seed: 2015})
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "thm11.snap")
	if err := compactroute.SaveSchemeFile(path, s); err != nil {
		t.Fatal(err)
	}
	return path, n
}

// TestServeLineProtocol drives a full session over the stdin transport:
// route, dist, stats, malformed input, quit.
func TestServeLineProtocol(t *testing.T) {
	snap, _ := writeSnapshot(t)
	in := strings.NewReader(strings.Join([]string{
		"route 3 41",
		"dist 3 41",
		"route 3",        // malformed: missing vertex
		"route 3 999999", // out of range
		"teleport 1 2",   // unknown command
		"stats",
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-verify", "-workers", "2"}, in, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# serving thm11-5+eps",
		"route 3 41 hops=",
		"stretch=",
		"dist 3 41 ",
		"err route: want: route U V",
		"err route: vertex out of range",
		"err teleport: unknown command",
		"stats queries=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestServeJSONProtocol checks the -json transport parses back cleanly and
// a verified route reply carries a consistent stretch.
func TestServeJSONProtocol(t *testing.T) {
	snap, _ := writeSnapshot(t)
	in := strings.NewReader("route 5 60\nquit\n")
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-verify", "-json"}, in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := lines[len(lines)-1]
	var rep struct {
		Op      string  `json:"op"`
		Hops    int     `json:"hops"`
		Weight  float64 `json:"weight"`
		Dist    float64 `json:"dist"`
		Stretch float64 `json:"stretch"`
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		t.Fatalf("bad JSON %q: %v", last, err)
	}
	if rep.Op != "route" || rep.Hops < 1 || rep.Dist <= 0 {
		t.Fatalf("unexpected reply %+v", rep)
	}
	if got := rep.Weight / rep.Dist; rep.Stretch < 1 || got-rep.Stretch > 1e-9 || rep.Stretch-got > 1e-9 {
		t.Fatalf("stretch %v inconsistent with weight/dist %v", rep.Stretch, got)
	}
}

// TestLoadgen runs the closed-loop generator with verification on: every
// query must deliver within the proved stretch bound, and the JSON summary
// must report the run.
func TestLoadgen(t *testing.T) {
	if testing.Short() {
		t.Skip("serves thousands of queries; skipped in short mode")
	}
	snap, _ := writeSnapshot(t)
	var out strings.Builder
	err := run([]string{"-snapshot", snap, "-loadgen", "-queries", "5000",
		"-batch", "512", "-workers", "4", "-verify", "-json"}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Scheme     string  `json:"scheme"`
		Queries    uint64  `json:"queries"`
		QPS        float64 `json:"qps"`
		Violations uint64  `json:"violations"`
		MaxStretch float64 `json:"max_stretch"`
		SnapBytes  int64   `json:"snapshot_bytes"`
		TableWords int64   `json:"table_words"`
	}
	if err := json.Unmarshal([]byte(out.String()), &sum); err != nil {
		t.Fatalf("bad summary %q: %v", out.String(), err)
	}
	if sum.Scheme != "thm11-5+eps" || sum.Queries != 5000 || sum.Violations != 0 {
		t.Fatalf("unexpected summary %+v", sum)
	}
	if sum.QPS <= 0 || sum.SnapBytes <= 0 || sum.TableWords <= 0 {
		t.Fatalf("degenerate summary %+v", sum)
	}
}

// TestServeLiveAdminSession drives the -live admin protocol over stdin:
// churn, degraded routing, rebuild+hot-swap, recovered stats.
func TestServeLiveAdminSession(t *testing.T) {
	snap, _ := writeSnapshot(t)
	in := strings.NewReader(strings.Join([]string{
		"route 3 41",
		"deledge 3 41",  // may or may not be an edge; either answer is fine
		"deledge 0 0",   // invalid: self loop
		"addedge 0 0 2", // invalid: self loop
		"setw 1 2 0",    // invalid: non-positive weight (or missing edge)
		"stats",
		"rebuild",
		"stats",
		"route 3 41",
		// The rebuild armed the repair state (RepairFuncFor), so the repair
		// and refresh admin commands swap generations in place from here on
		// (with an empty overlay both are deterministic no-op repairs).
		"repair",
		"refresh",
		"stats",
		"quit",
	}, "\n"))
	var out strings.Builder
	if err := run([]string{"-snapshot", snap, "-live", "-verify", "-workers", "2"}, in, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"live) on G(",
		"err deledge:",
		"err addedge:",
		"err setw:",
		"ok rebuild gen=1",
		"gen=1",
		"rebuilds=1",
		"ok repair gen=2",
		"ok refresh gen=3",
		"repairs=2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestServeLiveChurnOverTCP runs a full degraded/recovered cycle over the
// TCP transport and then exercises the graceful-shutdown satellite: SIGINT
// must drain the session, flush a final stats line and return nil (exit 0).
func TestServeLiveChurnOverTCP(t *testing.T) {
	snap, _ := writeSnapshot(t)
	outR, outW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-snapshot", snap, "-live", "-verify", "-listen", "127.0.0.1:0"},
			strings.NewReader(""), outW)
	}()
	// Drain the server's output continuously (it writes into a pipe, so an
	// unread line would block it) and hand every line to the test.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(outR)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var addr string
	for line := range lines {
		if s, ok := strings.CutPrefix(line, "# listening on "); ok {
			addr = s
			break
		}
	}
	if addr == "" {
		t.Fatal("no listening banner")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	send := func(cmd string) string {
		t.Helper()
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no reply to %q: %v", cmd, sc.Err())
		}
		return sc.Text()
	}
	if rep := send("route 3 41"); !strings.HasPrefix(rep, "route 3 41 hops=") {
		t.Fatalf("route reply %q", rep)
	}
	// Delete an edge incident to vertex 3 (probe neighbors until one
	// deletion is accepted) and route again: still served.
	dst := -1
	for v := 0; v < 72 && dst < 0; v++ {
		if v == 3 {
			continue
		}
		if rep := send(fmt.Sprintf("deledge 3 %d", v)); strings.HasPrefix(rep, "ok deledge") {
			dst = v
		}
	}
	if dst < 0 {
		t.Fatal("vertex 3 has no deletable edge")
	}
	if rep := send("route 3 41"); !strings.HasPrefix(rep, "route 3 41 hops=") {
		t.Fatalf("degraded route reply %q", rep)
	}
	if rep := send("rebuild"); !strings.HasPrefix(rep, "ok rebuild gen=1") {
		t.Fatalf("rebuild reply %q", rep)
	}
	if rep := send("stats"); !strings.Contains(rep, "gen=1") {
		t.Fatalf("stats reply %q", rep)
	}
	// Graceful shutdown: SIGINT to our own process; run() must drain and
	// return nil, emitting the final stats line on its way out.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
	outW.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("no final stats line")
			}
			if strings.HasPrefix(line, "# shutdown: stats ") {
				if !strings.Contains(line, "queries=") {
					t.Fatalf("final stats line malformed: %q", line)
				}
				return
			}
		case <-deadline:
			t.Fatal("no final stats line")
		}
	}
}

func TestRunRejectsMissingSnapshot(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(""), &out); err == nil {
		t.Fatal("expected error without -snapshot")
	}
	if err := run([]string{"-snapshot", "/definitely/not/a/file"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("expected error for missing snapshot file")
	}
}

// newStaticServer opens snap into a one-shard static server, as run does
// without -live.
func newStaticServer(t testing.TB, snap string, verify bool) *server {
	t.Helper()
	srv := &server{verify: verify, reg: compactroute.NewMetricsRegistry()}
	if err := srv.openStatic(snap, 1, 16); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.eng.Close)
	return srv
}

// dialSession serves srv on a loopback listener and returns a client
// connection to it. Cleanup closes both and waits for the session to end.
func dialSession(t *testing.T, srv *server) net.Conn {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_ = srv.serveConn(c, c, nil)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		l.Close()
		wg.Wait()
	})
	return conn
}

// TestServePipelinedTCP sends 200 commands in one write over one connection:
// every command gets its reply, in order, and each bad command one err line.
func TestServePipelinedTCP(t *testing.T) {
	snap, n := writeSnapshot(t)
	conn := dialSession(t, newStaticServer(t, snap, false))
	const cmds = 200
	var req bytes.Buffer
	want := make([]string, cmds)
	for i := range cmds {
		u, v := i%n, (7*i+3)%n
		switch i % 10 {
		case 3:
			fmt.Fprintf(&req, "route %d\n", u)
			want[i] = "err route: want: route U V"
		case 6:
			fmt.Fprintf(&req, "route %d x%d\n", u, v)
			want[i] = fmt.Sprintf("err route: bad vertex \"x%d\"", v)
		case 9:
			fmt.Fprintf(&req, "teleport %d %d\n", u, v)
			want[i] = "err teleport: unknown command"
		default:
			fmt.Fprintf(&req, "route %d %d\n", u, v)
			want[i] = fmt.Sprintf("route %d %d hops=", u, v)
		}
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(conn)
	for i := range cmds {
		if !sc.Scan() {
			t.Fatalf("reply %d: %v", i, sc.Err())
		}
		if !strings.HasPrefix(sc.Text(), want[i]) {
			t.Fatalf("reply %d = %q, want prefix %q", i, sc.Text(), want[i])
		}
	}
}

// TestServePartialLineAnsweredAtOnce checks that a trailing partial line
// does not hold back the replies to the complete lines before it, and that
// CRLF line ends parse.
func TestServePartialLineAnsweredAtOnce(t *testing.T) {
	snap, _ := writeSnapshot(t)
	conn := dialSession(t, newStaticServer(t, snap, false))
	sc := bufio.NewScanner(conn)
	expect := func(prefix string) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if !sc.Scan() {
			t.Fatalf("no reply %q: %v", prefix, sc.Err())
		}
		if !strings.HasPrefix(sc.Text(), prefix) {
			t.Fatalf("reply %q, want prefix %q", sc.Text(), prefix)
		}
	}
	if _, err := io.WriteString(conn, "route 1 2\nroute 3"); err != nil {
		t.Fatal(err)
	}
	expect("route 1 2 hops=")
	if _, err := io.WriteString(conn, " 4\r\nroute 3 41\r\nstats\r"); err != nil {
		t.Fatal(err)
	}
	expect("route 3 4 hops=")
	expect("route 3 41 hops=")
	if _, err := io.WriteString(conn, "\n"); err != nil {
		t.Fatal(err)
	}
	expect("stats queries=3 ")
}

// TestServeLineTooLong pins the 64 KiB line limit: a line of maxLine bytes
// with its newline is a command, one byte more ends the session with
// bufio.ErrTooLong after answering the lines before it.
func TestServeLineTooLong(t *testing.T) {
	snap, _ := writeSnapshot(t)
	srv := newStaticServer(t, snap, false)
	var out strings.Builder
	in := "route 1 2\n" + strings.Repeat("x", maxLine-1) + "\nroute 1 2\n"
	if err := srv.serveConn(strings.NewReader(in), &out, nil); err != nil {
		t.Fatalf("line of %d bytes: %v", maxLine, err)
	}
	if lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); len(lines) != 3 ||
		!strings.HasPrefix(lines[1], "err xxx") || !strings.HasPrefix(lines[2], "route 1 2 hops=") {
		t.Fatalf("line of %d bytes: replies %q", maxLine, out.String())
	}

	out.Reset()
	in = "route 1 2\n" + strings.Repeat("x", maxLine) + "\nroute 1 2\n"
	if err := srv.serveConn(strings.NewReader(in), &out, nil); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line of %d bytes: err %v, want %v", maxLine+1, err, bufio.ErrTooLong)
	}
	if got := out.String(); !strings.HasPrefix(got, "route 1 2 hops=") || strings.Count(got, "\n") != 1 {
		t.Fatalf("line of %d bytes: replies %q, want the one before it", maxLine+1, got)
	}
}

// oldRouteText is the route reply as the fmt-based formatter wrote it;
// appendRouteText must reproduce it byte for byte.
func oldRouteText(u, v compactroute.Vertex, res compactroute.ServeResult, verify bool) string {
	var b strings.Builder
	dist, stretch := 0.0, 0.0
	if verify {
		dist = res.Dist
	}
	if verify && dist > 0 {
		stretch = res.Weight / dist
	}
	fmt.Fprintf(&b, "route %d %d hops=%d weight=%g header=%d", u, v, res.Hops, res.Weight, res.HeaderWords)
	if verify {
		fmt.Fprintf(&b, " dist=%g", dist)
		if dist > 0 {
			fmt.Fprintf(&b, " stretch=%.3f", stretch)
		}
	}
	if res.Stale() {
		fmt.Fprintf(&b, " stale=1 detours=%d fallback=%v", res.Detours, res.Fallback)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// TestRouteTextGolden pins the text route reply to the fmt format strings it
// replaced: plain, -verify with and without a positive distance, and live
// stale replies, over awkward weights and over real routes.
func TestRouteTextGolden(t *testing.T) {
	weights := []float64{0, 1, 32, 0.30000000000000004, 1e21, 1e-7, 123456789.125, math.MaxFloat64, math.Inf(1)}
	var cases []compactroute.ServeResult
	for i, w := range weights {
		for _, d := range []float64{0, -1, w, w / 3, 1e21, 7} {
			r := compactroute.ServeResult{Hops: i * 3, HeaderWords: 2 + i, Weight: w, Dist: d}
			cases = append(cases, r)
			r.DeadHits, r.Detours = 2, 1
			cases = append(cases, r)
			r.Fallback = true
			cases = append(cases, r)
			r.DeadHits, r.Detours = 0, 0
			cases = append(cases, r)
		}
	}
	check := func(u, v compactroute.Vertex, res compactroute.ServeResult) {
		t.Helper()
		for _, verify := range []bool{false, true} {
			want := oldRouteText(u, v, res, verify)
			if got := string(appendRouteText(nil, u, v, &res, verify)); got != want {
				t.Fatalf("verify=%v %+v:\n got %q\nwant %q", verify, res, got, want)
			}
		}
	}
	for i, res := range cases {
		check(compactroute.Vertex(i), compactroute.Vertex(1<<30+i), res)
	}

	snap, n := writeSnapshot(t)
	srv := newStaticServer(t, snap, true)
	for u := range n {
		for v := range n {
			check(compactroute.Vertex(u), compactroute.Vertex(v), srv.eng.Route(compactroute.Vertex(u), compactroute.Vertex(v)))
		}
	}
}

// TestServeConnAllocs pins the text route line at zero allocations: a
// session of many warm route commands allocates as much as a session of one.
func TestServeConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops pooled scratch; allocs/op is only meaningful without -race")
	}
	snap, n := writeSnapshot(t)
	srv := newStaticServer(t, snap, false)
	const cmds = 10000 // about two input buffers
	var many bytes.Buffer
	for i := range cmds {
		fmt.Fprintf(&many, "route %d %d\n", i%n, (7*i+3)%n)
	}
	session := func(in []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := srv.serveConn(bytes.NewReader(in), io.Discard, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	session(many.Bytes()) // warm every pair's scratch
	one := session([]byte("route 1 2\n"))
	got := session(many.Bytes())
	// A pooled scratch buffer refilled after a GC is a stray alloc per
	// session; an alloc on the command path is one per command.
	if perCmd := (got - one) / cmds; perCmd >= 0.01 {
		t.Errorf("%d route commands: %v allocs per session, one command: %v; %.3f allocs per command, want 0",
			cmds, got, one, perCmd)
	}
}

// FuzzServeConn feeds arbitrary bytes to a static session: it must not
// panic, and must answer every non-blank line before the first quit with
// exactly one reply or err line. It also holds the in-place tokenizer and
// integer parser to strings.Fields and strconv.Atoi.
func FuzzServeConn(f *testing.F) {
	snap, _ := writeSnapshot(f)
	srv := newStaticServer(f, snap, false)
	for _, seed := range []string{
		"route 3 41\ndist 3 41\nstats\ntrace\ntrace 2\nquit\nroute 1 2\n",
		"route 3\nroute 3 999999\nroute -1 +2\nroute 9223372036854775808 1\nteleport 1 2\n\n \t \nroute 3 41",
		"route 1 2\nroute 3",
		"route 3 41\r\nstats\r\n",
		"route\u00a01\u20282\nroute \xff 1\naddedge 1 2 3\nsetw 1 2\ndeledge 1 2\ntrace 0\nexit\n",
		"route 1 2\n" + strings.Repeat("x", maxLine) + "\nroute 1 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		err := srv.serveConn(bytes.NewReader(data), &out, nil)
		want, tooLong := expectedReplies(t, data)
		if tooLong != errors.Is(err, bufio.ErrTooLong) || (!tooLong && err != nil) {
			t.Fatalf("session err %v, overlong line %v", err, tooLong)
		}
		if got := bytes.Count(out.Bytes(), []byte("\n")); got != want || (out.Len() > 0 && out.Bytes()[out.Len()-1] != '\n') {
			t.Fatalf("%d reply lines for %d commands:\n%q", got, want, out.Bytes())
		}
	})
}

// expectedReplies counts the commands a session must answer for input data,
// and reports whether it must stop at an overlong line instead of EOF or
// quit. On the way it checks splitFields and atoi against strconv and
// strings.Fields.
func expectedReplies(t *testing.T, data []byte) (replies int, tooLong bool) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) >= maxLine {
			return replies, true
		}
		want := strings.Fields(string(line))
		var buf [maxFields][]byte
		got := splitFields(line, &buf)
		if len(got) != min(len(want), maxFields) {
			t.Fatalf("splitFields(%q) = %q, strings.Fields %q", line, got, want)
		}
		for i, f := range got {
			if string(f) != want[i] {
				t.Fatalf("splitFields(%q) = %q, strings.Fields %q", line, got, want)
			}
			x, ok := atoi(f)
			if wx, err := strconv.Atoi(want[i]); ok != (err == nil) || (ok && x != wx) {
				t.Fatalf("atoi(%q) = %d, %v; strconv.Atoi %d, %v", f, x, ok, wx, err)
			}
		}
		if len(want) == 0 {
			continue
		}
		if want[0] == "quit" || want[0] == "exit" {
			return replies, false
		}
		replies++
	}
	return replies, false
}

// lockedBuffer is an output both a session and the shutdown path write to.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeStdinShutdownKeepsWholeReplies streams route lines on stdin and
// sends SIGINT mid-stream: every reply written must be whole, and all of them
// must come before the final stats line, which ends the output.
func TestServeStdinShutdownKeepsWholeReplies(t *testing.T) {
	snap, n := writeSnapshot(t)
	inR, inW := io.Pipe()
	var out lockedBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-snapshot", snap, "-workers", "1"}, inR, &out) }()
	go func() {
		var b bytes.Buffer
		for i := 0; ; i++ {
			b.Reset()
			for j := range 64 {
				k := 64*i + j
				fmt.Fprintf(&b, "route %d %d\n", k%n, (7*k+3)%n)
			}
			if _, err := inW.Write(b.Bytes()); err != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); strings.Count(out.String(), "\n") < 2000; {
		if time.Now().After(deadline) {
			t.Fatalf("too few replies before the signal:\n%s", out.String())
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down within 10s")
	}
	inR.Close()
	text := out.String()
	if !strings.HasSuffix(text, "\n") {
		t.Fatalf("output ends in a partial line: %q", text[max(0, len(text)-80):])
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "# shutdown: stats queries=") {
		t.Fatalf("last line %q, want the final stats line", last)
	}
	for i, line := range lines[1 : len(lines)-1] {
		if f := strings.Fields(line); len(f) != 6 || f[0] != "route" || !strings.HasPrefix(f[5], "header=") {
			t.Fatalf("line %d is not a whole route reply: %q", i+1, line)
		}
	}
}
