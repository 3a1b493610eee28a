package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is a thread-safe aggregating Observer: stage spans accumulate
// into per-stage wall time and call counts, FrameDone events into per-stage
// frame totals, and Counter/Gauge events into (name, label) cells. All
// reductions are commutative, so for a deterministic pipeline the
// aggregated counters are identical at every worker count; only wall-clock
// figures vary between runs.
//
// A Metrics may be read concurrently with the pipeline: Snapshot takes a
// consistent copy under the same lock the writers use.
type Metrics struct {
	mu       sync.Mutex
	stages   map[string]*stageAgg
	counters map[metricKey]int64
	gauges   map[metricKey]float64
}

type stageAgg struct {
	started int64
	calls   int64
	frames  int64
	wall    time.Duration
}

type metricKey struct{ name, label string }

// NewMetrics returns an empty metrics aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		stages:   map[string]*stageAgg{},
		counters: map[metricKey]int64{},
		gauges:   map[metricKey]float64{},
	}
}

func (m *Metrics) stage(name string) *stageAgg {
	sa := m.stages[name]
	if sa == nil {
		sa = &stageAgg{}
		m.stages[name] = sa
	}
	return sa
}

// StageStart implements Observer.
func (m *Metrics) StageStart(stage string) {
	m.mu.Lock()
	m.stage(stage).started++
	m.mu.Unlock()
}

// StageEnd implements Observer.
func (m *Metrics) StageEnd(stage string, wall time.Duration) {
	m.mu.Lock()
	sa := m.stage(stage)
	sa.calls++
	sa.wall += wall
	m.mu.Unlock()
}

// FrameDone implements Observer.
func (m *Metrics) FrameDone(stage string, frames int) {
	m.mu.Lock()
	m.stage(stage).frames += int64(frames)
	m.mu.Unlock()
}

// Counter implements Observer.
func (m *Metrics) Counter(name, label string, delta int64) {
	m.mu.Lock()
	m.counters[metricKey{name, label}] += delta
	m.mu.Unlock()
}

// Gauge implements Observer.
func (m *Metrics) Gauge(name, label string, v float64) {
	m.mu.Lock()
	m.gauges[metricKey{name, label}] = v
	m.mu.Unlock()
}

// Reset clears every aggregate.
func (m *Metrics) Reset() {
	m.mu.Lock()
	m.stages = map[string]*stageAgg{}
	m.counters = map[metricKey]int64{}
	m.gauges = map[metricKey]float64{}
	m.mu.Unlock()
}

// StageStat is one stage's aggregate in a Snapshot.
type StageStat struct {
	// Stage is the stage name (see the Stage* constants).
	Stage string `json:"stage"`
	// Calls counts completed StageStart/StageEnd spans.
	Calls int64 `json:"calls"`
	// Frames is the number of per-frame work units the stage finished.
	Frames int64 `json:"frames,omitempty"`
	// Wall sums the wall time of every span of the stage — busy time, not
	// elapsed time: spans that run concurrently (the streaming pipeline
	// encodes several chunks at once) each add their full duration, so
	// Wall can exceed the run's elapsed time by up to the worker count.
	Wall time.Duration `json:"wall_ns"`
	// FramesPerSec is Frames divided by Wall (0 when either is 0). With
	// concurrent spans it is therefore a per-core rate, not the aggregate
	// throughput; divide Frames by the run's elapsed time for that.
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
}

// CounterStat is one counter cell in a Snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

// GaugeStat is one gauge cell in a Snapshot.
type GaugeStat struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
}

// Snapshot is a consistent point-in-time copy of a Metrics, with every
// section sorted by name (then label) so its rendering is deterministic.
type Snapshot struct {
	Stages   []StageStat   `json:"stages,omitempty"`
	Counters []CounterStat `json:"counters,omitempty"`
	Gauges   []GaugeStat   `json:"gauges,omitempty"`
}

// Snapshot returns a consistent copy of the current aggregates.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s Snapshot
	for name, sa := range m.stages {
		st := StageStat{Stage: name, Calls: sa.calls, Frames: sa.frames, Wall: sa.wall}
		if sa.wall > 0 && sa.frames > 0 {
			st.FramesPerSec = float64(sa.frames) / sa.wall.Seconds()
		}
		s.Stages = append(s.Stages, st)
	}
	for k, v := range m.counters {
		s.Counters = append(s.Counters, CounterStat{Name: k.name, Label: k.label, Value: v})
	}
	for k, v := range m.gauges {
		s.Gauges = append(s.Gauges, GaugeStat{Name: k.name, Label: k.label, Value: v})
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Stage < s.Stages[j].Stage })
	sort.Slice(s.Counters, func(i, j int) bool {
		a, b := s.Counters[i], s.Counters[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Label < b.Label
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		a, b := s.Gauges[i], s.Gauges[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Label < b.Label
	})
	return s
}

// Counter returns the value of the counter cell (name, label), 0 if absent.
func (s Snapshot) Counter(name, label string) int64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Label == label {
			return c.Value
		}
	}
	return 0
}

// CounterTotal sums every label of a counter name.
func (s Snapshot) CounterTotal(name string) int64 {
	var total int64
	for _, c := range s.Counters {
		if c.Name == name {
			total += c.Value
		}
	}
	return total
}

// Gauge returns the value of the gauge cell (name, label), 0 if absent.
func (s Snapshot) Gauge(name, label string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name && g.Label == label {
			return g.Value
		}
	}
	return 0
}

// WriteText renders the snapshot as a human-readable report.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	if len(s.Stages) > 0 {
		fmt.Fprintf(&b, "stage        calls     frames       wall    frames/s\n")
		for _, st := range s.Stages {
			fmt.Fprintf(&b, "%-12s %5d %10d %10s %11.1f\n",
				st.Stage, st.Calls, st.Frames, st.Wall.Round(time.Microsecond), st.FramesPerSec)
		}
	}
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %-28s %-8s %12d\n", c.Name, c.Label, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge   %-28s %-8s %12.4f\n", g.Name, g.Label, g.Value)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// JSON renders the snapshot as a single JSON object.
func (s Snapshot) JSON() ([]byte, error) { return json.Marshal(s) }
