package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children are the subprocesses running now; a SIGINT or SIGTERM kills
// them before the benchmark exits, so none outlives it.
var children = struct {
	sync.Mutex
	set map[*exec.Cmd]bool
}{set: map[*exec.Cmd]bool{}}

// startChild starts cmd and tracks it until release.
func startChild(cmd *exec.Cmd) error {
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	children.set[cmd] = true
	return nil
}

func release(cmd *exec.Cmd) {
	children.Lock()
	delete(children.set, cmd)
	children.Unlock()
}

// killChildrenOnSignal kills the tracked subprocesses and exits when the
// benchmark is interrupted.
func killChildrenOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		children.Lock()
		for cmd := range children.set {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
		os.Exit(1)
	}()
}

// server is a running routeserve subprocess.
type server struct {
	cmd   *exec.Cmd
	addr  string
	pid   string
	ready time.Duration // from start to the listening line
	done  chan struct{} // closed once stdout is drained
}

// startServer launches routeserve on a snapshot with one serving shard and
// GOMAXPROCS 1, and returns once it listens.
func startServer(bin, snapshot string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("no routeserve binary (-routeserve)")
	}
	t0 := time.Now()
	cmd := exec.Command(bin, "-snapshot", snapshot, "-workers", "1", "-listen", "127.0.0.1:0")
	// One serving shard on one core: the load generator needs the other, and
	// a server spread over both makes the pair hand work between more
	// threads than there are cores.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startChild(cmd); err != nil {
		return nil, fmt.Errorf("start routeserve: %w", err)
	}
	s := &server{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan struct{})}
	r := bufio.NewReader(out)
	s.addr, err = waitLine(r, "# listening on ")
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		release(cmd)
		return nil, fmt.Errorf("routeserve did not start: %w", err)
	}
	s.ready = time.Since(t0)
	go func() {
		// Drain the banner and the shutdown stats line.
		_, _ = io.Copy(io.Discard, r)
		close(s.done)
	}()
	return s, nil
}

// stop asks the server to shut down and waits for it to exit, killing it if
// it does not drain within ten seconds.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	err := s.cmd.Wait()
	release(s.cmd)
	if err != nil {
		return fmt.Errorf("routeserve exit: %w", err)
	}
	return nil
}

// waitLine reads lines from r until one has the given prefix and returns
// the rest of it.
func waitLine(r *bufio.Reader, prefix string) (string, error) {
	for {
		line, err := r.ReadString('\n')
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest), nil
		}
		if err != nil {
			return "", fmt.Errorf("waiting for %q: %w", prefix, err)
		}
	}
}
