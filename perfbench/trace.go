package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of the same simulation,
// program or cell share a Group; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Async marks a span recorded on another goroutine (a fleet RPC):
	// it nests inside its parent but may overlap the parent's other
	// children, so it is left out of the self-time stack.
	Async bool `json:"async,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the whole run. A nil *tracer records
// nothing, so untraced units pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open synchronous spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a synchronous span as a child of the innermost open one.
func (t *tracer) begin(name string, group int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:n-1]
}

// current returns the innermost open span (0 when none is open).
func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return 0
}

// async records a finished span that ran on another goroutine under
// parent.
func (t *tracer) async(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Async: true})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkNesting verifies that every span lies inside its parent and that
// the synchronous children of a span do not overlap one another.
func checkNesting(spans []span) error {
	byID := map[int]span{}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] escapes parent %d %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if !s.Async {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for parent, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		for i := 1; i < len(ks); i++ {
			if ks[i].Start < ks[i-1].End {
				return fmt.Errorf("children %d and %d of span %d overlap", ks[i-1].ID, ks[i].ID, parent)
			}
		}
	}
	return nil
}

// layerStack splits root's duration into the self time of every
// synchronous span beneath it, summed by span name. The root's own self
// time is the remainder. By construction the self times plus the
// remainder equal the root's duration.
func layerStack(spans []span, root int) (self map[string]time.Duration, remainder time.Duration) {
	kids := map[int][]span{}
	var rs span
	for _, s := range spans {
		if s.ID == root {
			rs = s
		}
		if !s.Async && s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = map[string]time.Duration{}
	var walk func(s span) time.Duration
	walk = func(s span) time.Duration {
		d := s.dur()
		for _, k := range kids[s.ID] {
			d -= k.dur()
			kd := walk(k)
			self[k.Name] += kd
		}
		return d
	}
	remainder = walk(rs)
	return self, remainder
}

// openSelf is the self time, by span name, of every finished span
// below the innermost open one: the layer split of a unit still running.
func (t *tracer) openSelf() map[string]time.Duration {
	spans := t.snapshot()
	open := t.current()
	spans[open-1].End = spans[open-1].Start // not finished; only its children count
	self, _ := layerStack(spans, open)
	return self
}
