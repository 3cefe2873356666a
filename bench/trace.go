package main

// Harness-side spans: recorded around the calls into each layer, kept in
// memory, written as JSON lines when the traced run ends. Spans inside
// the program are a later change.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval. Parent is the id of the span that caused
// it (0 = none); spans of one iteration share Iter. Aggregate marks a
// child that stands for many short intervals summed by the program's own
// phase timers: its duration is real, its start is its parent's.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	Workload  string `json:"workload"`
	Iter      int    `json:"iter"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
	Aggregate bool   `json:"aggregate,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

type recorder struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// root opens a span nothing caused, the first of iteration iter, and
// returns its id.
func (r *recorder) root(name string, iter int) int {
	return r.open(span{Name: name, Iter: iter})
}

// start opens a span caused by parent, in parent's iteration.
func (r *recorder) start(name string, parent int) int {
	return r.open(span{Name: name, Parent: parent})
}

func (r *recorder) open(s span) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Parent != 0 {
		s.Iter = r.spans[s.Parent-1].Iter
	}
	s.ID, s.Workload, s.StartNs, s.EndNs = len(r.spans)+1, r.workload, now, now
	r.spans = append(r.spans, s)
	return s.ID
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return s.dur()
}

// aggregate records a child whose duration the program accumulated.
func (r *recorder) aggregate(name string, parent int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, Iter: p.Iter, StartNs: p.StartNs, EndNs: p.StartNs + int64(d), Aggregate: true})
}

// checkNesting fails when the children of any span cover more than the
// span itself by over 1 %. A layer's self time is its span minus its
// children, so children plus self sum to the parent exactly when no self
// time is negative: a timer that counts an interval twice shows here.
// Only meaningful where children do not overlap (the sim spans).
func (r *recorder) checkNesting() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make(map[int]time.Duration)
	for _, s := range r.spans {
		covered[s.Parent] += s.dur()
	}
	for _, s := range r.spans {
		if c := covered[s.ID]; float64(c) > 1.01*float64(s.dur()) {
			return fmt.Errorf("span %s (iter %d): children cover %v of %v", s.Name, s.Iter, c, s.dur())
		}
	}
	return nil
}

// write stores the spans as dir/trace-<workload>.jsonl.
func (r *recorder) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+r.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
