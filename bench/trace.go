package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one, 0 for the
// operation's root. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Self is the span's duration minus the part of it its children cover;
	// it is filled in when the trace is written.
	Self int64 `json:"self"`
}

// tracer records spans from the benchmark's own files, around its calls
// into each layer's public functions. Spans stay in memory until the run
// ends. A nil tracer records nothing, which is what untraced runs use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(parent int, name string, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = now
	d := s.End - s.Start
	t.mu.Unlock()
	return time.Duration(d)
}

// selfTimes computes every span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (work
// fanned out in parallel) are counted once, by the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// write stores the trace as one JSON span per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cost is what one measured call used: wall time and heap allocations.
type cost struct {
	d      time.Duration
	allocs uint64
	bytes  uint64
}

// tally accumulates the cost of repeated calls of one kind, with every
// duration kept so that medians can be reported.
type tally struct {
	n      int
	total  time.Duration
	allocs uint64
	bytes  uint64
	each   []float64 // microseconds per call
}

func (a *tally) add(c cost) {
	a.n++
	a.total += c.d
	a.allocs += c.allocs
	a.bytes += c.bytes
	a.each = append(a.each, usOf(c.d))
}

// per returns total milliseconds divided by units (frames, chunks).
func (a *tally) msPer(units int) float64 {
	if units == 0 {
		return 0
	}
	return msOf(a.total) / float64(units)
}

func (a *tally) allocsPer(units int) float64 {
	if units == 0 {
		return 0
	}
	return float64(a.allocs) / float64(units)
}

func (a *tally) kbPer(units int) float64 {
	if units == 0 {
		return 0
	}
	return float64(a.bytes) / 1024 / float64(units)
}

// measured runs fn under a span and returns its wall time and the heap
// allocations made meanwhile. The allocation counts are the process's, so
// they are only attributed to fn where nothing else runs: the traced
// probes call it from one goroutine at workers=1.
func (t *tracer) measured(parent int, name string, op int, fn func() error) (cost, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.start(parent, name, op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(id)
	runtime.ReadMemStats(&after)
	return cost{d: d, allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, err
}
