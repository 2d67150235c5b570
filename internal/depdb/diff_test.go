package depdb

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"indaas/internal/deps"
)

func mustPut(t *testing.T, db *DB, records ...deps.Record) {
	t.Helper()
	if err := db.Put(records...); err != nil {
		t.Fatal(err)
	}
}

// TestDiffSameDBAppendOnly pins the fast path: two generations of one
// database diff to exactly the records ingested between them.
func TestDiffSameDBAppendOnly(t *testing.T) {
	db := New()
	mustPut(t, db, sampleRecords()...)
	a := db.Snapshot()
	extra := []deps.Record{
		deps.NewHardware("S9", "NIC", "S9-X520"),
		deps.NewNetwork("S9", "Internet", "ToR9"),
	}
	mustPut(t, db, extra...)
	b := db.Snapshot()

	d := a.Diff(b)
	if len(d.Added) != 2 || len(d.Removed) != 0 || len(d.Changed) != 0 {
		t.Fatalf("diff = %+v, want 2 additions", d)
	}
	if got := d.Subjects(); !reflect.DeepEqual(got, []string{"S9"}) {
		t.Fatalf("Subjects = %v, want [S9]", got)
	}
	// The reverse direction reports removals.
	rd := b.Diff(a)
	if len(rd.Removed) != 2 || len(rd.Added) != 0 {
		t.Fatalf("reverse diff = %+v, want 2 removals", rd)
	}
	if d.Empty() || !a.Diff(a).Empty() {
		t.Fatal("emptiness misreported")
	}
}

// TestDiffCrossDB compares unrelated databases: state against state, order
// independence, and identity pairing into Changed.
func TestDiffCrossDB(t *testing.T) {
	a, b := New(), New()
	shared := []deps.Record{
		deps.NewNetwork("s1", "Internet", "tor1", "core1"),
		deps.NewSoftware("nginx", "s1", "libc6"),
	}
	mustPut(t, a, shared...)
	mustPut(t, a, deps.NewHardware("s1", "Disk", "old-model"))
	// b holds the shared records in reverse order, the disk replaced, and
	// one brand-new record.
	mustPut(t, b, shared[1], shared[0])
	mustPut(t, b, deps.NewHardware("s1", "Disk", "new-model"))
	mustPut(t, b, deps.NewHardware("s2", "Disk", "s2-model"))

	d := a.Snapshot().Diff(b.Snapshot())
	if len(d.Added) != 1 || d.Added[0].Hardware.HW != "s2" {
		t.Fatalf("Added = %+v", d.Added)
	}
	if len(d.Removed) != 0 {
		t.Fatalf("Removed = %+v", d.Removed)
	}
	if len(d.Changed) != 1 || d.Changed[0].Old.Hardware.Dep != "old-model" || d.Changed[0].New.Hardware.Dep != "new-model" {
		t.Fatalf("Changed = %+v", d.Changed)
	}
	if got := d.Subjects(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("Subjects = %v", got)
	}
	// Equal states reached in different insertion orders diff empty.
	c := New()
	mustPut(t, c, shared[1], shared[0], deps.NewHardware("s1", "Disk", "old-model"))
	if d := a.Snapshot().Diff(c.Snapshot()); !d.Empty() {
		t.Fatalf("equal-content diff = %+v", d)
	}
}

// TestDiffDuplicateRecords: a record observed three times is the record
// observed once — one live record, nothing to diff.
func TestDiffDuplicateRecords(t *testing.T) {
	rec := deps.NewSoftware("redis", "s1", "libjemalloc2")
	a, b := New(), New()
	mustPut(t, a, rec)
	mustPut(t, b, rec, rec, rec)
	if b.Len() != 1 || a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("three observations: Len = %d, fingerprints equal = %v; want one live record, the same state",
			b.Len(), a.Fingerprint() == b.Fingerprint())
	}
	if d := a.Snapshot().Diff(b.Snapshot()); !d.Empty() {
		t.Fatalf("diff = %+v, want empty", d)
	}
	before := b.Snapshot()
	mustPut(t, b, rec)
	if d := before.Diff(b.Snapshot()); !d.Empty() || b.Snapshot() != before {
		t.Fatalf("a further re-observation: diff = %+v, snapshot re-registered = %v", d, b.Snapshot() != before)
	}
}

// TestFingerprintWithMatchesPut: the O(batch) preview must agree with the
// fingerprint an actual Put produces.
func TestFingerprintWithMatchesPut(t *testing.T) {
	db := New()
	mustPut(t, db, sampleRecords()...)
	extra := []deps.Record{
		deps.NewHardware("S7", "NIC", "S7-X520"),
		deps.NewSoftware("etcd", "S7", "libc6"),
	}
	batch, err := NewBatch(extra...)
	if err != nil {
		t.Fatal(err)
	}
	preview := db.FingerprintWith(batch)
	if preview == db.Fingerprint() {
		t.Fatal("preview with additions must differ from the current fingerprint")
	}
	// The staged commit and a record-by-record Put of the same records must
	// both land on the previewed fingerprint: hashing once changes no bit.
	twin := New()
	mustPut(t, twin, sampleRecords()...)
	for _, r := range extra {
		mustPut(t, twin, r)
	}
	db.PutBatch(batch)
	if got := db.Fingerprint(); got != preview {
		t.Fatalf("FingerprintWith = %s, PutBatch produced %s", preview, got)
	}
	if got := twin.Fingerprint(); got != preview {
		t.Fatalf("FingerprintWith = %s, per-record Put produced %s", preview, got)
	}
	if _, err := NewBatch(extra[0], deps.Record{Kind: deps.KindHardware}); err == nil {
		t.Fatal("NewBatch accepted an invalid record")
	}
}

// TestSumSubInvertsAdd: sub is the exact inverse of add over the whole
// 2048-bit width, carries and borrows across limbs included, so a
// superseded record leaves no trace in the sum.
func TestSumSubInvertsAdd(t *testing.T) {
	var s fpSum
	for i := range s.limbs {
		s.limbs[i] = ^uint64(0)
	}
	one := digest{1}
	s.add(&one)
	if s.limbs != (digest{}) || s.count != 1 {
		t.Fatalf("(2^2048-1) + 1 = %v count %d, want all-zero limbs", s.limbs, s.count)
	}
	s.sub(&one)
	for i := range s.limbs {
		if s.limbs[i] != ^uint64(0) {
			t.Fatalf("0 - 1: limb %d = %x, want the borrow to run through every limb", i, s.limbs[i])
		}
	}
	var kept, churned fpSum
	x, y, z := digestOf("x"), digestOf("yy"), digestOf("zzz")
	kept.add(&x)
	kept.add(&z)
	for _, d := range []*digest{&y, &x, &z} {
		churned.add(d)
	}
	churned.sub(&y)
	if churned != kept {
		t.Fatal("adding then subtracting a digest does not restore the sum")
	}
	yy := digestOf("yy")
	if !churned.replace(&z, true, &y) || churned.replace(&yy, true, &y) || churned.replace(nil, true, &y) {
		t.Fatal("replace misreports what changed")
	}
	kept.sub(&z)
	kept.add(&y)
	if churned != kept {
		t.Fatal("replace is not subtract-old, add-new")
	}
	if !churned.replace(nil, false, &z) || churned.count != 3 {
		t.Fatal("replace under a new key must add")
	}
}

// TestDiffAllocsLinear gates the same-log diff's allocation count: one key
// per record (canonicalLine allocates at most twice) plus the suffix copy,
// not two fresh keys per comparison.
func TestDiffAllocsLinear(t *testing.T) {
	const n = 10_000
	db := New()
	mustPut(t, db, sampleRecords()...)
	a := db.Snapshot()
	suffix := make([]deps.Record, 0, n)
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("h%05d", (i*7919)%n) // unsorted on purpose
		switch i % 3 {
		case 0:
			suffix = append(suffix, deps.NewNetwork(host, "Internet", "tor-"+host, "core1"))
		case 1:
			suffix = append(suffix, deps.NewHardware(host, "NIC", host+"-X520"))
		default:
			suffix = append(suffix, deps.NewSoftware("svc", host, "libc6", "libssl3"))
		}
	}
	mustPut(t, db, suffix...)
	b := db.Snapshot()
	var d Diff
	allocs := testing.AllocsPerRun(3, func() { d = a.Diff(b) })
	if len(d.Added) != n {
		t.Fatalf("diff added %d records, want %d", len(d.Added), n)
	}
	if !sort.SliceIsSorted(d.Added, func(i, j int) bool {
		return canonicalLine(d.Added[i]) < canonicalLine(d.Added[j])
	}) {
		t.Fatal("same-log diff is not canonically sorted")
	}
	if allocs > 2*n+16 {
		t.Fatalf("same-log Diff of %d records allocated %.0f times, want at most 2n+16", n, allocs)
	}
}

// TestSnapshotExtends: a later generation extends every earlier one of its
// own database, and nothing of another database.
func TestSnapshotExtends(t *testing.T) {
	db := New()
	mustPut(t, db, sampleRecords()...)
	old := db.Snapshot()
	mustPut(t, db, deps.NewHardware("S9", "NIC", "S9-X520"))
	young := db.Snapshot()
	other := New()
	mustPut(t, other, sampleRecords()...)
	if !young.Extends(old) || !old.Extends(old) || old.Extends(young) {
		t.Fatal("same-log generations misordered")
	}
	if other.Snapshot().Extends(old) || old.Extends(other.Snapshot()) {
		t.Fatal("snapshots of different databases must not extend one another")
	}
}

// TestReobservationsAreNotHashed: a record equal to the live one — or to an
// earlier record of the same batch — is recognized by its canonical line,
// so a batch of nothing but re-observations computes no digest in
// FingerprintWith or PutBatch, and a mixed batch hashes only the records
// that change state, once, however many times it is previewed.
func TestReobservationsAreNotHashed(t *testing.T) {
	db := New()
	mustPut(t, db, sampleRecords()...)
	fp := db.Fingerprint()
	hashed := func(b *Batch) (n int) {
		for i := range b.staged {
			if b.staged[i].hashed {
				n++
			}
		}
		return n
	}

	again, err := NewBatch(append(sampleRecords(), sampleRecords()...)...)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.FingerprintWith(again); got != fp {
		t.Fatalf("re-observations moved the previewed fingerprint: %s, want %s", got, fp)
	}
	if changed := db.PutBatch(again); changed != nil {
		t.Fatalf("re-observations changed records %v", changed)
	}
	if n := hashed(again); n != 0 {
		t.Fatalf("a batch of re-observations hashed %d records, want 0", n)
	}

	mixed, err := NewBatch(
		deps.NewHardware("S1", "CPU", "S1-X5550"),          // re-observed
		deps.NewHardware("S1", "CPU", "S1-E5-2680"),        // supersedes
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"), // re-observed route
		deps.NewNetwork("S9", "Internet", "ToR9", "Core1"), // new route
		deps.NewNetwork("S9", "Internet", "ToR9", "Core1"), // the same route again in the batch
		deps.NewHardware("S1", "CPU", "S1-E5-2680"),        // the batch's own record again
	)
	if err != nil {
		t.Fatal(err)
	}
	preview := db.FingerprintWith(mixed)
	if n := hashed(mixed); n != 2 {
		t.Fatalf("previewing a batch with two state changes hashed %d records", n)
	}
	if db.FingerprintWith(mixed) != preview {
		t.Fatal("a second preview of the same batch disagrees with the first")
	}
	if changed := db.PutBatch(mixed); !reflect.DeepEqual(changed, []int{1, 3}) {
		t.Fatalf("changed = %v, want [1 3]", changed)
	}
	if n := hashed(mixed); n != 2 {
		t.Fatalf("committing a batch with two state changes hashed %d records in all", n)
	}
	if got := db.Fingerprint(); got != preview {
		t.Fatalf("FingerprintWith = %s, PutBatch produced %s", preview, got)
	}
}
