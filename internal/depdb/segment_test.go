package depdb

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"indaas/internal/deps"
)

// oddRecords are valid records the Table 1 XML form could not carry: a list
// separator inside an item, surrounding spaces, a newline, markup, non-ASCII
// text, a control character, and a program with no deps.
func oddRecords() []deps.Record {
	return []deps.Record{
		deps.NewSoftware("p", "h", "a,b"),
		deps.NewNetwork("s1", "Internet", " tor1", "core 1 "),
		deps.NewHardware("s1", "NIC", "x\x01y"),
		deps.NewHardware("s1", "Disk", "line\nbreak"),
		deps.NewSoftware(`<&"'>`, "s1", "libc6=2.31"),
		deps.NewHardware("s2", "CPU", "Xéon ✓"),
		deps.NewSoftware("bare", "s2"),
	}
}

func segmentOf(t testing.TB, records ...deps.Record) []byte {
	t.Helper()
	b, err := NewBatch(records...)
	if err != nil {
		t.Fatal(err)
	}
	return b.Segment()
}

// TestSegmentRoundTrip: a database's segment is the durable form of its
// state — loaded into a fresh database it reproduces the fingerprint and the
// records, in order — and a batch's segment is its records' canonical lines,
// the bytes the fingerprint digests were taken over.
func TestSegmentRoundTrip(t *testing.T) {
	records := append(sampleRecords(), oddRecords()...)
	db := New()
	mustPut(t, db, records...)
	mustPut(t, db, deps.NewHardware("S1", "CPU", "S1-X5560")) // supersedes one
	fresh := New()
	if err := fresh.PutSegment(db.Segment()); err != nil {
		t.Fatal(err)
	}
	if fresh.Fingerprint() != db.Fingerprint() || !reflect.DeepEqual(fresh.Records(), db.Records()) {
		t.Fatalf("round trip:\n got %v (%s)\nwant %v (%s)", fresh.Records(), fresh.Fingerprint(), db.Records(), db.Fingerprint())
	}
	if !reflect.DeepEqual(fresh.Subjects(), db.Subjects()) {
		t.Fatalf("subjects %v, want %v", fresh.Subjects(), db.Subjects())
	}

	var want []byte
	for _, r := range records {
		want = appendFrame(want, canonicalLine(r))
	}
	if got := segmentOf(t, records...); !bytes.Equal(got, want) {
		t.Fatalf("batch segment is not the framed canonical lines:\n got %q\nwant %q", got, want)
	}
	if got := New().Segment(); len(got) != 0 {
		t.Fatalf("empty database segment = %q", got)
	}
}

// TestPutSegmentRejectsGarbage: a segment that is not whole frames of valid
// record lines is refused as a unit, leaving the database as it was.
func TestPutSegmentRejectsGarbage(t *testing.T) {
	valid := segmentOf(t, sampleRecords()...)
	for name, seg := range map[string][]byte{
		"xml":              []byte(`<?xml version="1.0"?><dependencies/>`),
		"truncated frame":  valid[:len(valid)-1],
		"length overflow":  binary.AppendUvarint(nil, 1<<40),
		"bad uvarint":      bytes.Repeat([]byte{0xff}, 11),
		"three fields":     appendFrame(nil, "hw\x1fs1\x1fNIC"),
		"unknown tag":      appendFrame(nil, "vm\x1fs1\x1fx\x1fy"),
		"empty field":      appendFrame(nil, "hw\x1fs1\x1f\x1fdep"),
		"separator inside": appendFrame(nil, "hw\x1fs1\x1fNIC\x1fa\x1fb"),
		"empty list item":  appendFrame(nil, "sw\x1fp\x1fh\x1fa\x1e"),
		"valid then bad":   appendFrame(append([]byte(nil), valid...), "hw"),
	} {
		db := New()
		mustPut(t, db, deps.NewHardware("S9", "NIC", "S9-X520"))
		fp, before := db.Fingerprint(), db.Records()
		if err := db.PutSegment(seg); err == nil {
			t.Errorf("%s: accepted %q", name, seg)
		}
		if db.Fingerprint() != fp || !reflect.DeepEqual(db.Records(), before) {
			t.Errorf("%s: a refused segment changed the database", name)
		}
	}
}

// TestSeparatorsCannotAlias: the canonical line separates fields with U+001F
// and list items with U+001E, so a name holding either could make two
// different records one line — and two databases one fingerprint. Such
// records are refused, and the pairs do not share an address.
func TestSeparatorsCannotAlias(t *testing.T) {
	for _, pair := range [][2]deps.Record{
		{deps.NewSoftware("p", "h", "a\x1eb"), deps.NewSoftware("p", "h", "a", "b")},
		{deps.NewHardware("s1\x1fNIC", "x", "m"), deps.NewHardware("s1", "NIC\x1fx", "m")},
		{deps.NewNetwork("s1", "d", "r1\x1er2"), deps.NewNetwork("s1", "d", "r1", "r2")},
	} {
		a, b := New(), New()
		errA, errB := a.Put(pair[0]), b.Put(pair[1])
		if errA == nil && errB == nil {
			t.Errorf("both %v and %v were accepted", pair[0], pair[1])
		}
		if errA == nil && errB == nil && a.Fingerprint() == b.Fingerprint() {
			t.Errorf("%v and %v share fingerprint %s", pair[0], pair[1], a.Fingerprint())
		}
	}
}

// heapBytes returns the bytes f allocated.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzPutSegment is the segment decoder's trust boundary — a segment comes
// back from disk. Arbitrary bytes either are refused with the database
// untouched, or load a state whose own segment loads to the same fingerprint
// and records. It never panics, and a frame claiming more bytes than follow
// it is refused without allocating them.
func FuzzPutSegment(f *testing.F) {
	full := segmentOf(f, append(sampleRecords(), oddRecords()...)...)
	f.Add(full)
	for i := range full {
		f.Add(full[:i])
	}
	f.Add(segmentOf(f, oddRecords()...))
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add(append(binary.AppendUvarint(nil, 1<<30), "hw\x1fs\x1ft\x1fd"...))
	f.Fuzz(func(t *testing.T, seg []byte) {
		db := New()
		mustPut(t, db, deps.NewHardware("S1", "CPU", "S1-X5550"))
		fp, before := db.Fingerprint(), db.Records()
		if n, k := binary.Uvarint(seg); k > 0 && n > uint64(len(seg)) && n >= 1<<20 {
			if got := heapBytes(func() { New().PutSegment(seg) }); got >= 1<<16 {
				t.Fatalf("a frame claiming %d bytes of a %d-byte segment allocated %d", n, len(seg), got)
			}
		}
		if err := db.PutSegment(seg); err != nil {
			if db.Fingerprint() != fp || !reflect.DeepEqual(db.Records(), before) {
				t.Fatalf("a refused segment changed the database: %v", err)
			}
			return
		}
		again := New()
		if err := again.PutSegment(db.Segment()); err != nil {
			t.Fatalf("the segment of a loaded state is refused: %v", err)
		}
		if again.Fingerprint() != db.Fingerprint() || !reflect.DeepEqual(again.Records(), db.Records()) {
			t.Fatalf("re-encoded state loads to %s, want %s", again.Fingerprint(), db.Fingerprint())
		}
	})
}
