package main

import (
	"testing"

	"compactroute"
)

func TestParseRouteReply(t *testing.T) {
	for _, tc := range []struct {
		line string
		want routeReply
	}{
		{"route 3 41 hops=5 weight=37 header=9", routeReply{src: 3, dst: 41, hops: 5, header: 9, weight: 37}},
		{"route 0 7 hops=1 weight=2.5 header=4 dist=2 stretch=1.250", routeReply{src: 0, dst: 7, hops: 1, header: 4, weight: 2.5}},
		{"route 12 4 hops=3 weight=9 header=6 stale=1 detours=1 fallback=false", routeReply{src: 12, dst: 4, hops: 3, header: 6, weight: 9}},
		{"route  1  2 hops=2 weight=3 header=5", routeReply{src: 1, dst: 2, hops: 2, header: 5, weight: 3}},
	} {
		got, err := parseRouteReply([]byte(tc.line))
		if err != nil {
			t.Errorf("parse %q: %v", tc.line, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parse %q = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}

func TestParseRouteReplyRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"err route: vertex 9999 out of range [0, 4000)",
		"dist 3 41 37",
		"route 3 41",
		"route 3 41 hops=5 weight=37",            // no header
		"route 3 41 hops=5 weight=x header=9",    // bad weight
		"route -3 41 hops=5 weight=37 header=9",  // negative vertex
		"route 3 41 hops=5 weight=37 header=9 z", // field without '='
	} {
		if r, err := parseRouteReply([]byte(line)); err == nil {
			t.Errorf("parse %q = %+v, want an error", line, r)
		}
	}
}

func TestCheckReplyMatchesRequest(t *testing.T) {
	pair := [2]compactroute.Vertex{3, 41}
	if _, err := checkReply([]byte("route 3 41 hops=5 weight=37 header=9\n"), pair); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	if _, err := checkReply([]byte("route 3 40 hops=5 weight=37 header=9\n"), pair); err == nil {
		t.Fatal("reply for another pair accepted")
	}
	if _, err := checkReply([]byte("route 3 41 hops=0 weight=0 header=9\n"), pair); err == nil {
		t.Fatal("zero-hop reply for distinct vertices accepted")
	}
}
