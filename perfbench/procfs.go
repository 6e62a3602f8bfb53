package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clkTck is USER_HZ, the unit of utime and stime in /proc/<pid>/stat. The
// kernel fixes it at 100 on every architecture Go supports on Linux.
const clkTck = 100

// procCPU is a process's consumed CPU time from /proc/<pid>/stat.
type procCPU struct{ userS, sysS float64 }

// parseStat reads utime and stime (fields 14 and 15) from the content of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStat(b []byte) (procCPU, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procCPU{}, fmt.Errorf("stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("stat: %d fields after the command name, want >= 13", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procCPU{}, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return procCPU{userS: float64(ut) / clkTck, sysS: float64(st) / clkTck}, nil
}

// procIO is the I/O accounting of /proc/<pid>/io.
type procIO struct {
	rchar, wchar, syscr, syscw uint64
}

// parseIO reads rchar, wchar, syscr and syscw from /proc/<pid>/io.
func parseIO(b []byte) (procIO, error) {
	var io procIO
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "rchar":
			io.rchar = n
		case "wchar":
			io.wchar = n
		case "syscr":
			io.syscr = n
		case "syscw":
			io.syscw = n
		default:
			continue
		}
		seen++
	}
	if seen != 4 {
		return io, fmt.Errorf("io: found %d of rchar/wchar/syscr/syscw", seen)
	}
	return io, nil
}

// parseStatusKB reads one "Key:  N kB" line of /proc/<pid>/status.
func parseStatusKB(b []byte, key string) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, sc.Text())
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

// procSample is one reading of a process's /proc counters.
type procSample struct {
	cpu procCPU
	io  procIO
}

// readProc samples /proc/<pid>/stat and /proc/<pid>/io ("self" reads this
// process).
func readProc(pid string) (procSample, error) {
	var s procSample
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseStat(b); err != nil {
		return s, err
	}
	if b, err = os.ReadFile("/proc/" + pid + "/io"); err != nil {
		return s, err
	}
	s.io, err = parseIO(b)
	return s, err
}

// peakRSSMiB reads VmHWM, the peak resident set, of a process.
func peakRSSMiB(pid string) (float64, error) { return statusMiB(pid, "VmHWM") }

// rssMiB reads VmRSS, the current resident set, of a process.
func rssMiB(pid string) (float64, error) { return statusMiB(pid, "VmRSS") }

func statusMiB(pid, key string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, key)
	return float64(kb) / 1024, err
}
