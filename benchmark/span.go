package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a call into a layer's
// public functions, a child process, or a phase that groups them. Times
// are nanoseconds since the tracer started. Spans of one repetition of
// a pass share Iter.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: no parent (the root)
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the traced run ends. begin
// and end nest on a stack and belong to the goroutine that drives the
// run; add records an already finished span from any goroutine (the
// coordinator's RPCs complete on the worker's and heartbeat's).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: t.iter, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("benchmark: spans ended out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// current is the innermost open span, the parent to hand to add.
func (t *tracer) current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

func (t *tracer) add(parent int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Iter: t.iter,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// durations lists, in milliseconds, every finished span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children that overlap each
// other (concurrent RPCs) count once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := s.Start, s.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ivs {
			if k.lo > edge {
				edge = k.lo
			}
			if k.hi > edge {
				covered += k.hi - edge
				edge = k.hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}
