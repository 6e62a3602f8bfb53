package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// routeReply is one parsed text-protocol route answer of routeserve:
//
//	route U V hops=H weight=W header=X [more key=value fields]
type routeReply struct {
	src, dst, hops, header int
	weight                 float64
}

// parseRouteReply parses one reply line (without its newline). Error lines
// ("err route: ...") and anything malformed return an error.
func parseRouteReply(line []byte) (routeReply, error) {
	var r routeReply
	rest, ok := bytes.CutPrefix(line, []byte("route "))
	if !ok {
		return r, fmt.Errorf("not a route reply: %q", clip(line))
	}
	var fields [8][]byte
	nf := 0
	for len(rest) > 0 && nf < len(fields) {
		var f []byte
		f, rest, _ = bytes.Cut(rest, []byte{' '})
		if len(f) > 0 {
			fields[nf] = f
			nf++
		}
	}
	if nf < 5 {
		return r, fmt.Errorf("short route reply: %q", clip(line))
	}
	var err error
	if r.src, err = atoi(fields[0]); err != nil {
		return r, err
	}
	if r.dst, err = atoi(fields[1]); err != nil {
		return r, err
	}
	var seen int
	for _, f := range fields[2:nf] {
		k, v, ok := bytes.Cut(f, []byte{'='})
		if !ok {
			return r, fmt.Errorf("bad field %q in %q", f, clip(line))
		}
		switch string(k) {
		case "hops":
			r.hops, err = atoi(v)
			seen |= 1
		case "weight":
			r.weight, err = strconv.ParseFloat(string(v), 64)
			seen |= 2
		case "header":
			r.header, err = atoi(v)
			seen |= 4
		}
		if err != nil {
			return r, fmt.Errorf("bad %s in %q: %w", k, clip(line), err)
		}
	}
	if seen != 7 {
		return r, fmt.Errorf("route reply lacks hops/weight/header: %q", clip(line))
	}
	return r, nil
}

// atoi parses a non-negative decimal integer without allocating.
func atoi(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 18 {
		return 0, fmt.Errorf("bad integer %q", b)
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad integer %q", b)
		}
		n = n*10 + int(c-'0')
	}
	return n, nil
}

func clip(b []byte) string {
	if len(b) > 120 {
		b = b[:120]
	}
	return string(b)
}
