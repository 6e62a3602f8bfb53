package main

import (
	"os"
	"strconv"
	"testing"
)

func TestParseStat(t *testing.T) {
	// Field 2 holds spaces and a parenthesis; utime=250, stime=125 ticks.
	line := "4242 (route serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 125 0 0 20 0 9 0 100 1000000 2000 18446744073709551615\n"
	got, err := parseStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got.userS != 2.5 || got.sysS != 1.25 {
		t.Fatalf("parseStat = %+v, want user 2.5 s, sys 1.25 s", got)
	}
	for _, bad := range []string{"", "4242 (x) S 1 2 3", "4242 (x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 u s 0"} {
		if _, err := parseStat([]byte(bad)); err == nil {
			t.Errorf("parseStat(%q) succeeded", bad)
		}
	}
}

func TestParseIO(t *testing.T) {
	in := "rchar: 1500\nwchar: 4300\nsyscr: 12\nsyscw: 100\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	got, err := parseIO([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if got != (procIO{rchar: 1500, wchar: 4300, syscr: 12, syscw: 100}) {
		t.Fatalf("parseIO = %+v", got)
	}
	if _, err := parseIO([]byte("rchar: 1\nwchar: 2\n")); err == nil {
		t.Fatal("parseIO accepted a file without syscr/syscw")
	}
}

func TestParseStatusKB(t *testing.T) {
	in := "Name:\trouteserve\nVmPeak:\t  812345 kB\nVmHWM:\t   69120 kB\nVmRSS:\t   65000 kB\n"
	got, err := parseStatusKB([]byte(in), "VmHWM")
	if err != nil || got != 69120 {
		t.Fatalf("VmHWM = %d, %v; want 69120", got, err)
	}
	if _, err := parseStatusKB([]byte(in), "VmSwap"); err == nil {
		t.Fatal("missing key found")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Fatal("non-kB unit accepted")
	}
}

// The readers work on this process's own /proc files.
func TestReadProcSelf(t *testing.T) {
	s, err := readProc(strconv.Itoa(os.Getpid()))
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	if s.io.rchar == 0 && s.io.syscr == 0 {
		t.Errorf("own io counters are zero: %+v", s.io)
	}
	if rss, err := peakRSSMiB("self"); err != nil || rss <= 0 {
		t.Errorf("peak RSS = %g, %v", rss, err)
	}
}
