// Package telemetry is the daemon's zero-dependency observability layer:
// context-carried phase traces for individual computations, lock-free
// log-bucketed latency histograms with Prometheus text exposition, runtime
// and build-info gauges, and slog-based HTTP request logging. Everything is
// allocation-conscious: a nil *Trace is a valid no-op recorder, so hot paths
// that never start a computation pay nothing.
package telemetry

import (
	"encoding/binary"
	"math"
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
	// sealed holds phases and counts, which are then nil, once Seal has
	// packed them.
	sealed []byte
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

// Seal packs a finished trace into the form a settled job keeps it in for
// as long as the job table keeps the job: one byte slice of varints, each
// name one byte (its number in a process-wide table of the few names traces
// use), a fraction of the structs' bytes. Snapshot and Counts read it as
// before, and a phase or count recorded later unpacks it first. Seal does
// nothing while a phase is running, or once the table is full.
func (t *Trace) Seal() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sealed != nil {
		return
	}
	var buf [128]byte
	b := binary.AppendUvarint(buf[:0], uint64(len(t.phases)))
	for _, p := range t.phases {
		id, ok := nameID(p.Name)
		if !ok || p.Running {
			return
		}
		b = binary.AppendVarint(binary.AppendVarint(append(b, id), p.StartNS), p.DurationNS)
	}
	b = binary.AppendUvarint(b, uint64(len(t.counts)))
	for _, c := range t.counts {
		id, ok := nameID(c.name)
		if !ok {
			return
		}
		b = binary.AppendVarint(append(b, id), c.n)
	}
	t.sealed = append([]byte(nil), b...)
	t.phases, t.counts = nil, nil
}

// unpacked returns the phases and counts of t, sealed or not. Caller holds
// t.mu; the slices are t's own unless t is sealed.
func (t *Trace) unpacked() ([]Phase, []count) {
	if t.sealed == nil {
		return t.phases, t.counts
	}
	b := t.sealed
	uvarint := func() int {
		n, k := binary.Uvarint(b)
		b = b[k:]
		return int(n)
	}
	varint := func() int64 {
		n, k := binary.Varint(b)
		b = b[k:]
		return n
	}
	name := func() string {
		id := b[0]
		b = b[1:]
		return nameOf(id)
	}
	phases := make([]Phase, uvarint())
	for i := range phases {
		phases[i].Name = name()
		phases[i].StartNS = varint()
		phases[i].DurationNS = varint()
	}
	counts := make([]count, uvarint())
	for i := range counts {
		counts[i].name = name()
		counts[i].n = varint()
	}
	return phases, counts
}

// unseal makes a sealed trace recordable again. Caller holds t.mu.
func (t *Trace) unseal() {
	if t.sealed != nil {
		t.phases, t.counts = t.unpacked()
		t.sealed = nil
	}
}

// names numbers the names sealed traces spell as one byte each.
var names struct {
	sync.Mutex
	id   map[string]byte
	list []string
}

// nameID returns name's number, giving it the next one when it has none;
// false once all 256 are taken.
func nameID(name string) (byte, bool) {
	names.Lock()
	defer names.Unlock()
	if id, ok := names.id[name]; ok {
		return id, true
	}
	if len(names.list) > math.MaxUint8 {
		return 0, false
	}
	if names.id == nil {
		names.id = make(map[string]byte)
	}
	id := byte(len(names.list))
	names.id[name] = id
	names.list = append(names.list, name)
	return id, true
}

func nameOf(id byte) string {
	names.Lock()
	defer names.Unlock()
	return names.list[id]
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
	t.unseal()
	idx := len(t.phases)
	t.phases = append(t.phases, Phase{Name: name, StartNS: at.Sub(t.start).Nanoseconds(), Running: true})
	t.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			d := time.Since(at).Nanoseconds()
			t.mu.Lock()
			t.unseal()
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
	t.unseal()
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
	t.unseal()
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
	phases, _ := t.unpacked()
	out := make([]Phase, len(phases))
	copy(out, phases)
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
	_, counts := t.unpacked()
	if len(counts) == 0 {
		return nil
	}
	out := make(map[string]int64, len(counts))
	for _, c := range counts {
		out[c.name] = c.n
	}
	return out
}
