package main

import "time"

// span is one timed interval recorded at a layer boundary. Spans of one
// request share req; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	start, end int64 // ns since the recorder's epoch
	parent     int32
	req        int32
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder(capacity int) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (r *spanRecorder) begin(name string, parent, req int32) int32 {
	r.spans = append(r.spans, span{name: name, parent: parent, req: req})
	i := int32(len(r.spans) - 1)
	r.spans[i].start = int64(time.Since(r.epoch))
	return i
}

// end closes span i.
func (r *spanRecorder) end(i int32) { r.spans[i].end = int64(time.Since(r.epoch)) }

// selfTimes returns each span's self time: its duration minus the time its
// children cover, corrected for the clock reads the recording itself added.
// A span's own two reads add about one read (clock ns) to its duration, and
// each child adds one more to the parent beyond the child's own duration.
// Children must lie inside their parent, as nested begin/end calls ensure.
func selfTimes(spans []span, clock float64) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = float64(s.end-s.start) - clock
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= float64(s.end-s.start) + clock
		}
	}
	return self
}

// meanSelfByName averages self times per span name.
func meanSelfByName(spans []span, self []float64) map[string]float64 {
	sum := map[string]float64{}
	cnt := map[string]int{}
	for i, s := range spans {
		sum[s.name] += self[i]
		cnt[s.name]++
	}
	for k := range sum {
		sum[k] /= float64(cnt[k])
	}
	return sum
}
