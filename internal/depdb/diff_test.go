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

// TestDiffCrossDB compares unrelated databases: multiset semantics, order
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
	// Equal multisets in different insertion orders diff empty.
	c := New()
	mustPut(t, c, shared[1], shared[0], deps.NewHardware("s1", "Disk", "old-model"))
	if d := a.Snapshot().Diff(c.Snapshot()); !d.Empty() {
		t.Fatalf("equal-content diff = %+v", d)
	}
}

// TestDiffDuplicateRecords: depdb stores duplicates; the diff counts
// multiplicities rather than treating records as a set.
func TestDiffDuplicateRecords(t *testing.T) {
	rec := deps.NewSoftware("redis", "s1", "libjemalloc2")
	a, b := New(), New()
	mustPut(t, a, rec)
	mustPut(t, b, rec, rec, rec)
	d := a.Snapshot().Diff(b.Snapshot())
	if len(d.Added) != 2 || len(d.Removed) != 0 || len(d.Changed) != 0 {
		t.Fatalf("diff = %+v, want 2 duplicate additions", d)
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

// TestSumMergeCarries: merging batch sums is the same 2048-bit wrapping
// addition add performs per record, carries across limbs included.
func TestSumMergeCarries(t *testing.T) {
	var a, b fpSum
	for i := range a.limbs {
		a.limbs[i] = ^uint64(0)
	}
	b.limbs[0], b.count = 1, 1
	a.merge(&b)
	if a.limbs != [fpLimbs]uint64{} || a.count != 1 {
		t.Fatalf("(2^2048-1) + 1 = %v count %d, want all-zero limbs", a.limbs, a.count)
	}
	var whole, left, right fpSum
	for i, line := range []string{"x", "yy", "zzz", "wwww"} {
		whole.add(line)
		if i < 2 {
			left.add(line)
		} else {
			right.add(line)
		}
	}
	left.merge(&right)
	if left != whole {
		t.Fatal("sum of partial sums differs from the sequential sum")
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
