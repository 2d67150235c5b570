package depdb

import (
	"sort"

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
// both sides of each change. Dirty-subject analysis (sia.DirtySubjects)
// iterates this.
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
// states. Both routes give the same answer.
func (a *Snapshot) Diff(b *Snapshot) Diff {
	if a.log != b.log {
		return diffStates(a.Records(), b.Records())
	}
	var d Diff
	if a.limit <= b.limit {
		d = a.diffSuffix(b.limit)
	} else { // backwards: what b's successor a added, a.Diff(b) removes
		d = b.diffSuffix(a.limit)
		d.Added, d.Removed = nil, d.Added
		for i, c := range d.Changed {
			d.Changed[i] = RecordChange{Old: c.New, New: c.Old}
		}
	}
	sortCanonically(d.Added)
	sortCanonically(d.Removed)
	d.sortChanged()
	return d
}

// diffSuffix diffs s against the later generation of its own log that ends
// at hi, unsorted. Nothing is ever removed going forward: an identity first
// logged in the suffix was added, one logged before it and again inside it
// changed — unless the suffix brought it back to where it was.
func (s *Snapshot) diffSuffix(hi int) Diff {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	lo, entries := s.limit, s.log.entries
	superseded := make([]bool, hi-lo) // suffix entries that a later suffix entry replaced
	for _, e := range entries[lo:hi] {
		if e.prev >= lo {
			superseded[e.prev-lo] = true
		}
	}
	var d Diff
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
			d.Added = append(d.Added, now.rec)
		} else if old := entries[was].rec; canonicalLine(old) != canonicalLine(now.rec) {
			d.Changed = append(d.Changed, RecordChange{Old: old, New: now.rec})
		}
	}
	return d
}

// diffStates compares two reduced states by canonical line; within one
// state every line is distinct. Added and removed records that share an
// identity pair up as changes.
func diffStates(a, b []deps.Record) Diff {
	unmatched := make(map[string]int, len(a)) // line -> index in a
	for i, r := range a {
		unmatched[canonicalLine(r)] = i
	}
	var d Diff
	for _, r := range b {
		line := canonicalLine(r)
		if _, ok := unmatched[line]; ok {
			delete(unmatched, line)
			continue
		}
		d.Added = append(d.Added, r)
	}
	for _, i := range unmatched {
		d.Removed = append(d.Removed, a[i])
	}
	sortCanonically(d.Added)
	sortCanonically(d.Removed)
	d.pairChanged()
	return d
}

// pairChanged moves added/removed pairs sharing an identity into Changed.
// Both slices are canonically sorted, so the pairing — first unconsumed
// match per identity — is deterministic.
func (d *Diff) pairChanged() {
	if len(d.Added) == 0 || len(d.Removed) == 0 {
		return
	}
	removedByID := make(map[identity][]int, len(d.Removed))
	for i, r := range d.Removed {
		id := identityOf(r)
		removedByID[id] = append(removedByID[id], i)
	}
	consumedRemoved := make([]bool, len(d.Removed))
	var added []deps.Record
	for _, r := range d.Added {
		id := identityOf(r)
		if idxs := removedByID[id]; len(idxs) > 0 {
			old := d.Removed[idxs[0]]
			consumedRemoved[idxs[0]] = true
			removedByID[id] = idxs[1:]
			d.Changed = append(d.Changed, RecordChange{Old: old, New: r})
			continue
		}
		added = append(added, r)
	}
	var removed []deps.Record
	for i, r := range d.Removed {
		if !consumedRemoved[i] {
			removed = append(removed, r)
		}
	}
	d.Added, d.Removed = added, removed
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

// sortCanonically orders records by their canonical serialization. Each
// record's key is built once and records and keys are sorted together, so
// the sort allocates O(n) and its comparisons are plain string compares.
func sortCanonically(records []deps.Record) {
	if len(records) < 2 {
		return
	}
	keys := make([]string, len(records))
	for i, r := range records {
		keys[i] = canonicalLine(r)
	}
	sort.Sort(&byKey{keys: keys, swap: func(i, j int) { records[i], records[j] = records[j], records[i] }})
}

// sortChanged orders changes by the canonical serialization of their New
// record, the order pairChanged produces.
func (d *Diff) sortChanged() {
	if len(d.Changed) < 2 {
		return
	}
	keys := make([]string, len(d.Changed))
	for i, c := range d.Changed {
		keys[i] = canonicalLine(c.New)
	}
	sort.Sort(&byKey{keys: keys, swap: func(i, j int) { d.Changed[i], d.Changed[j] = d.Changed[j], d.Changed[i] }})
}

// byKey sorts precomputed keys, and whatever swap moves, in lockstep.
type byKey struct {
	keys []string
	swap func(i, j int)
}

func (b *byKey) Len() int           { return len(b.keys) }
func (b *byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b *byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.swap(i, j)
}
