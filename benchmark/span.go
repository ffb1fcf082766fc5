package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the public API.  Start and End are nanoseconds since the tracer was made;
// Parent indexes the span that caused this one (-1 for a root); spans of one
// operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so the traced and the untraced replay run the same code and their
// difference is the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the handle for end and the
// parent of its children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// absorb appends another tracer's spans, rebased onto t's clock and indices.
func (t *tracer) absorb(o *tracer) {
	shift := int64(o.t0.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range o.snapshot() {
		s.Start += shift
		s.End += shift
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// spanTotals sums, per span name, the durations and the self times: a span's
// self time is its duration minus the part of its interval that its child
// spans cover (overlapping children are counted once).
func spanTotals(spans []span) (total, self map[string]int64) {
	total, self = map[string]int64{}, map[string]int64{}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range spans {
		dur := s.End - s.Start
		total[s.Name] += dur
		self[s.Name] += dur - covered(children[i], s.Start, s.End)
	}
	return total, self
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	at := lo
	for _, c := range iv {
		a, b := max(c[0], at), min(c[1], hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}
