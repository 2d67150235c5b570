package depdb

import (
	"slices"
	"sort"
	"strings"

	"indaas/internal/deps"
)

// RecordChange pairs a removed record with the added record that replaced it
// — two records with the same identity (same route endpoints, same hardware
// slot, same program+host) but different content.
type RecordChange struct {
	Old, New deps.Record
}

// Diff is the canonical difference between two snapshots' reduced states:
// the live records one must add to and remove from the receiver to obtain
// the argument. Records sharing an identity on both sides are reported as
// Changed instead. The diff depends on the two states only — not on
// insertion order, superseded history, or whether the snapshots share a log
// — and its slices are sorted canonically (Changed by its New record), so
// two equal-content snapshot pairs always diff identically.
type Diff struct {
	Added   []deps.Record
	Removed []deps.Record
	Changed []RecordChange
}

// Empty reports whether the two snapshots hold identical live records.
func (d Diff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.Changed) == 0
}

// Touched returns every record the diff mentions: additions, removals, and
// both sides of each change. Dirty-deployment analysis
// (sia.DirtyDeployments) iterates this.
func (d Diff) Touched() []deps.Record {
	out := make([]deps.Record, 0, len(d.Added)+len(d.Removed)+2*len(d.Changed))
	out = append(out, d.Added...)
	out = append(out, d.Removed...)
	for _, c := range d.Changed {
		out = append(out, c.Old, c.New)
	}
	return out
}

// Subjects returns the sorted set of subjects the diff touches.
func (d Diff) Subjects() []string {
	set := make(map[string]bool)
	for _, r := range d.Touched() {
		set[r.Subject()] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Diff computes the canonical difference from snapshot a to snapshot b: the
// live records to add, remove and change so a's state becomes b's.
// Snapshots of one log short-circuit — only identities with an entry in the
// log suffix between the two can differ, so the ingest-then-re-audit case
// costs O(n) allocations and O(n log n) string compares in the n entries
// logged between them, independent of database size — while snapshots
// separated by a compaction, or of unrelated databases, compare their full
// states. Both routes give the same answer. Records are compared and sorted
// by the canonical lines the log stored with them; nothing is re-rendered.
func (a *Snapshot) Diff(b *Snapshot) Diff {
	var added, removed []entry
	var changed []change
	switch {
	case a.log != b.log:
		added, removed = diffStates(a.live(), b.live())
	case a.limit <= b.limit:
		added, changed = a.diffSuffix(b.limit)
	default: // backwards: what b's successor a added, a.Diff(b) removes
		removed, changed = b.diffSuffix(a.limit)
		for i, c := range changed {
			changed[i] = change{old: c.new, new: c.old}
		}
	}
	slices.SortFunc(added, byLine)
	slices.SortFunc(removed, byLine)
	if a.log != b.log {
		added, removed, changed = pairChanged(added, removed)
	}
	slices.SortFunc(changed, func(x, y change) int { return byLine(x.new, y.new) })
	d := Diff{Added: recordsOf(added), Removed: recordsOf(removed)}
	for _, c := range changed {
		d.Changed = append(d.Changed, RecordChange{Old: c.old.rec, New: c.new.rec})
	}
	return d
}

// change is a RecordChange with both sides' canonical lines.
type change struct{ old, new entry }

func byLine(x, y entry) int { return strings.Compare(x.line, y.line) }

// recordsOf returns the records of es, nil when there are none.
func recordsOf(es []entry) []deps.Record {
	if len(es) == 0 {
		return nil
	}
	out := make([]deps.Record, len(es))
	for i := range es {
		out[i] = es[i].rec
	}
	return out
}

// diffSuffix diffs s against the later generation of its own log that ends
// at hi, unsorted. Nothing is ever removed going forward: an identity first
// logged in the suffix was added, one logged before it and again inside it
// changed — unless the suffix brought it back to where it was.
func (s *Snapshot) diffSuffix(hi int) (added []entry, changed []change) {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	lo, entries := s.limit, s.log.entries
	superseded := make([]bool, hi-lo) // suffix entries that a later suffix entry replaced
	for _, e := range entries[lo:hi] {
		if e.prev >= lo {
			superseded[e.prev-lo] = true
		}
	}
	for p := lo; p < hi; p++ {
		if superseded[p-lo] {
			continue
		}
		now := entries[p]
		was := now.prev
		for was >= lo {
			was = entries[was].prev
		}
		if was < 0 {
			added = append(added, now)
		} else if old := entries[was]; old.line != now.line {
			changed = append(changed, change{old: old, new: now})
		}
	}
	return added, changed
}

// diffStates compares two reduced states by canonical line, unsorted; within
// one state every line is distinct.
func diffStates(a, b []entry) (added, removed []entry) {
	unmatched := make(map[string]int, len(a)) // line -> index in a
	for i, e := range a {
		unmatched[e.line] = i
	}
	for _, e := range b {
		if _, ok := unmatched[e.line]; ok {
			delete(unmatched, e.line)
			continue
		}
		added = append(added, e)
	}
	for _, i := range unmatched {
		removed = append(removed, a[i])
	}
	return added, removed
}

// pairChanged moves added/removed pairs sharing an identity into changed.
// Both slices are canonically sorted, so the pairing — first unconsumed
// match per identity — is deterministic.
func pairChanged(added, removed []entry) (a, r []entry, changed []change) {
	if len(added) == 0 || len(removed) == 0 {
		return added, removed, nil
	}
	removedByID := make(map[identity][]int, len(removed))
	for i, e := range removed {
		id := identityOf(e.rec)
		removedByID[id] = append(removedByID[id], i)
	}
	consumed := make([]bool, len(removed))
	for _, e := range added {
		id := identityOf(e.rec)
		if idxs := removedByID[id]; len(idxs) > 0 {
			consumed[idxs[0]] = true
			removedByID[id] = idxs[1:]
			changed = append(changed, change{old: removed[idxs[0]], new: e})
			continue
		}
		a = append(a, e)
	}
	for i, e := range removed {
		if !consumed[i] {
			r = append(r, e)
		}
	}
	return a, r, changed
}

// identity names what a record is *about*, content aside: a route between
// two endpoints, a hardware slot of a machine, a program on a host. Two
// records with equal identity but different content constitute a change.
type identity struct {
	kind deps.Kind
	a, b string
}

func identityOf(r deps.Record) identity {
	switch r.Kind {
	case deps.KindNetwork:
		return identity{r.Kind, r.Network.Src, r.Network.Dst}
	case deps.KindHardware:
		return identity{r.Kind, r.Hardware.HW, r.Hardware.Type}
	case deps.KindSoftware:
		return identity{r.Kind, r.Software.Pgm, r.Software.HW}
	default:
		return identity{kind: r.Kind, a: canonicalLine(r)}
	}
}
