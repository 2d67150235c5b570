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

// Diff is the canonical difference between two snapshots: the records one
// must add to and remove from the receiver to obtain the argument. Records
// sharing an identity on both sides are reported as Changed instead. The
// diff is order-independent — it compares record multisets, not insertion
// logs — and its slices are sorted canonically, so two equal-content
// snapshot pairs always diff identically.
type Diff struct {
	Added   []deps.Record
	Removed []deps.Record
	Changed []RecordChange
}

// Empty reports whether the two snapshots hold identical record multisets.
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
// records to add and remove so a's multiset becomes b's. Snapshots of the
// same database short-circuit — the younger generation's log suffix IS the
// diff: it is copied and sorted canonically with one key built per record,
// so the ingest-then-re-audit case costs O(n) allocations and O(n log n)
// string compares in the n records ingested between the two, independent of
// database size — while snapshots of unrelated databases compare full
// multisets.
func (a *Snapshot) Diff(b *Snapshot) Diff {
	if a.db == b.db {
		lo, hi := a.limit, b.limit
		removed := false
		if lo > hi {
			lo, hi = hi, lo
			removed = true
		}
		a.db.mu.RLock()
		suffix := append([]deps.Record(nil), a.db.v.records[lo:hi]...)
		a.db.mu.RUnlock()
		sortCanonically(suffix)
		if removed {
			return Diff{Removed: suffix}
		}
		return Diff{Added: suffix}
	}

	// Cross-database: compare record multisets by canonical line.
	type slot struct {
		count int // b occurrences minus a occurrences
		rec   deps.Record
	}
	counts := make(map[string]*slot)
	for _, r := range b.Records() {
		line := canonicalLine(r)
		s := counts[line]
		if s == nil {
			s = &slot{rec: r}
			counts[line] = s
		}
		s.count++
	}
	for _, r := range a.Records() {
		line := canonicalLine(r)
		s := counts[line]
		if s == nil {
			s = &slot{rec: r}
			counts[line] = s
		}
		s.count--
	}
	var d Diff
	for _, s := range counts {
		for i := 0; i < s.count; i++ {
			d.Added = append(d.Added, s.rec)
		}
		for i := 0; i < -s.count; i++ {
			d.Removed = append(d.Removed, s.rec)
		}
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
	removedByID := make(map[string][]int, len(d.Removed))
	for i, r := range d.Removed {
		id := identityKey(r)
		removedByID[id] = append(removedByID[id], i)
	}
	consumedRemoved := make([]bool, len(d.Removed))
	var added []deps.Record
	for _, r := range d.Added {
		id := identityKey(r)
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

// identityKey names what a record is *about*, content aside: a route between
// two endpoints, a hardware slot of a machine, a program on a host. Two
// records with equal identity but different content constitute a change.
func identityKey(r deps.Record) string {
	const fs = "\x1f"
	switch r.Kind {
	case deps.KindNetwork:
		return "net" + fs + r.Network.Src + fs + r.Network.Dst
	case deps.KindHardware:
		return "hw" + fs + r.Hardware.HW + fs + r.Hardware.Type
	case deps.KindSoftware:
		return "sw" + fs + r.Software.Pgm + fs + r.Software.HW
	default:
		return canonicalLine(r)
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
	sort.Sort(&byCanonicalKey{records: records, keys: keys})
}

// byCanonicalKey sorts records and their precomputed keys in lockstep.
type byCanonicalKey struct {
	records []deps.Record
	keys    []string
}

func (b *byCanonicalKey) Len() int           { return len(b.keys) }
func (b *byCanonicalKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b *byCanonicalKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.records[i], b.records[j] = b.records[j], b.records[i]
}
