// Package telemetry is the daemon's zero-dependency observability layer:
// context-carried phase traces for individual computations, lock-free
// log-bucketed latency histograms with Prometheus text exposition, runtime
// and build-info gauges, and slog-based HTTP request logging. Everything is
// allocation-conscious: a nil *Trace is a valid no-op recorder, so hot paths
// that never start a computation pay nothing.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Trace records the named phases of one pipeline computation: queue-wait,
// graph-build, minimal-rgs, sampling, splice, persist, notify. Phases may
// overlap (concurrent per-spec audits) and are recorded from multiple
// goroutines; a small mutex guards the slice. All methods are safe on a nil
// receiver so instrumented code never needs to check whether a trace is
// attached to its context.
type Trace struct {
	start time.Time

	mu     sync.Mutex
	phases []Phase
	// counts are few (rgs_found, rounds_sampled, subjects_spliced), so a
	// slice holds them in a fraction of a map's bytes: a settled job keeps
	// its trace for as long as the job table keeps the job.
	counts []count
}

// count is one named pipeline count of a trace.
type count struct {
	name string
	n    int64
}

// Phase is one completed (or still-open) span inside a trace. Offsets and
// durations are monotonic nanoseconds relative to the trace start.
type Phase struct {
	Name       string `json:"name"`
	StartNS    int64  `json:"start_ns"`
	DurationNS int64  `json:"duration_ns"`
	Running    bool   `json:"running,omitempty"`
}

// New starts a trace whose clock begins now.
func New() *Trace { return NewAt(time.Now()) }

// NewAt starts a trace backdated to t, so that work done before the trace
// object existed (journaling an accepted job, for example) still lands
// inside the first phase instead of in an unaccounted gap.
func NewAt(t time.Time) *Trace {
	return &Trace{start: t}
}

// Start opens a phase beginning now and returns the closure that ends it.
// The phase is visible in snapshots immediately (Running=true) so a stuck
// job's trace shows where it is stuck.
func (t *Trace) Start(name string) func() {
	return t.StartAt(name, time.Now())
}

// StartAt opens a phase beginning at the given instant.
func (t *Trace) StartAt(name string, at time.Time) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	idx := len(t.phases)
	t.phases = append(t.phases, Phase{Name: name, StartNS: at.Sub(t.start).Nanoseconds(), Running: true})
	t.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			d := time.Since(at).Nanoseconds()
			t.mu.Lock()
			t.phases[idx].DurationNS = d
			t.phases[idx].Running = false
			t.mu.Unlock()
		})
	}
}

// Span records an already-completed phase.
func (t *Trace) Span(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, Phase{Name: name, StartNS: start.Sub(t.start).Nanoseconds(), DurationNS: d.Nanoseconds()})
	t.mu.Unlock()
}

// Add accumulates a named count (rgs_found, rounds_sampled, subjects_spliced).
func (t *Trace) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.counts {
		if t.counts[i].name == name {
			t.counts[i].n += n
			return
		}
	}
	t.counts = append(t.counts, count{name, n})
}

// Snapshot returns the phases recorded so far, ordered by start offset.
// The returned slice is a copy; nil receivers return nil.
func (t *Trace) Snapshot() []Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Phase, len(t.phases))
	copy(out, t.phases)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// Counts returns a copy of the accumulated counts, or nil when empty.
func (t *Trace) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.counts) == 0 {
		return nil
	}
	out := make(map[string]int64, len(t.counts))
	for _, c := range t.counts {
		out[c.name] = c.n
	}
	return out
}
