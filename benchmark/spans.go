package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the public call it wraps. Spans of one frame train,
// roam or storm share Trace; Parent is the ID of the span that caused
// this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder is the benchmark's own in-memory span store. A nil recorder
// records nothing and costs one nil check per call, which is what the
// untraced pass runs with.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	next  uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is an in-flight span; end stores it.
type openSpan struct {
	r *recorder
	s span
}

// start opens a span under parent (nil parent = new trace).
func (r *recorder) start(parent *openSpan, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	s := span{ID: id, Trace: id, Name: name, Start: int64(time.Since(r.t0))}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	}
	return &openSpan{r: r, s: s}
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.t0))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// selfTimes sums, per span name, duration minus the part covered by
// direct children — where a traced operation actually spent its time.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	childCover := make(map[uint64]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			childCover[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		self := s.End - s.Start - childCover[s.ID]
		if self < 0 {
			self = 0 // concurrent children can cover more than the parent's wall time
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
