package depdb

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"indaas/internal/deps"
)

func sampleRecords() []deps.Record {
	return []deps.Record{
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S1", "Internet", "ToR1", "Core2"),
		deps.NewNetwork("S2", "Internet", "ToR1", "Core1"),
		deps.NewHardware("S1", "CPU", "S1-X5550"),
		deps.NewHardware("S2", "Disk", "S2-SED900"),
		deps.NewSoftware("Riak1", "S1", "libc6", "libsvn1"),
		deps.NewSoftware("QueryEngine2", "S2", "libc6", "libgcc1"),
	}
}

func TestPutAndQuery(t *testing.T) {
	db := New()
	if err := db.Put(sampleRecords()...); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if db.Len() != 7 {
		t.Fatalf("Len = %d, want 7", db.Len())
	}
	nets := db.Networks("S1")
	if len(nets) != 2 {
		t.Fatalf("Networks(S1) = %d records, want 2", len(nets))
	}
	if nets[0].Route[1] != "Core1" || nets[1].Route[1] != "Core2" {
		t.Errorf("Networks(S1) order not preserved: %v", nets)
	}
	hw := db.HardwareOf("S2")
	if len(hw) != 1 || hw[0].Dep != "S2-SED900" {
		t.Errorf("HardwareOf(S2) = %v", hw)
	}
	sw := db.SoftwareOf("S1")
	if len(sw) != 1 || sw[0].Pgm != "Riak1" {
		t.Errorf("SoftwareOf(S1) = %v", sw)
	}
	if got := db.Query("S3", deps.KindNetwork); got != nil {
		t.Errorf("Query(unknown) = %v, want nil", got)
	}
}

func TestPutRejectsInvalidAtomically(t *testing.T) {
	db := New()
	err := db.Put(
		deps.NewNetwork("S1", "Internet", "ToR1"),
		deps.NewNetwork("", "Internet"), // invalid
	)
	if err == nil {
		t.Fatal("Put accepted an invalid record")
	}
	if db.Len() != 0 {
		t.Fatalf("Put was not atomic: %d records stored", db.Len())
	}
}

func TestSubjects(t *testing.T) {
	db := New()
	if err := db.Put(sampleRecords()...); err != nil {
		t.Fatal(err)
	}
	if got := db.Subjects(); !reflect.DeepEqual(got, []string{"S1", "S2"}) {
		t.Errorf("Subjects = %v", got)
	}
}

func TestQueryAllGroupsByKind(t *testing.T) {
	db := New()
	// Insert software before network; QueryAll must still group
	// network, hardware, software.
	if err := db.Put(
		deps.NewSoftware("P", "S1", "x"),
		deps.NewNetwork("S1", "Internet", "r1"),
		deps.NewHardware("S1", "CPU", "m"),
	); err != nil {
		t.Fatal(err)
	}
	all := db.QueryAll("S1")
	if len(all) != 3 {
		t.Fatalf("QueryAll = %d records", len(all))
	}
	wantKinds := []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware}
	for i, k := range wantKinds {
		if all[i].Kind != k {
			t.Errorf("QueryAll[%d].Kind = %v, want %v", i, all[i].Kind, k)
		}
	}
}

func TestQueryReturnsCopy(t *testing.T) {
	db := New()
	if err := db.Put(deps.NewNetwork("S1", "Internet", "r1")); err != nil {
		t.Fatal(err)
	}
	got := db.Query("S1", deps.KindNetwork)
	got[0] = deps.NewNetwork("EVIL", "EVIL")
	if db.Query("S1", deps.KindNetwork)[0].Network.Src != "S1" {
		t.Error("Query result aliases internal storage")
	}
}

func TestXMLPersistence(t *testing.T) {
	db := New()
	if err := db.Put(sampleRecords()...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteXML(&buf); err != nil {
		t.Fatalf("WriteXML: %v", err)
	}
	db2 := New()
	if err := db2.ReadXML(&buf); err != nil {
		t.Fatalf("ReadXML: %v", err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("reloaded %d records, want %d", db2.Len(), db.Len())
	}
	if !reflect.DeepEqual(db2.Subjects(), db.Subjects()) {
		t.Errorf("subjects differ after reload: %v vs %v", db2.Subjects(), db.Subjects())
	}
	if len(db2.Networks("S1")) != 2 || len(db2.SoftwareOf("S2")) != 1 {
		t.Error("per-kind queries differ after reload")
	}
}

func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	db := New()
	if err := db.Put(sampleRecords()...); err != nil {
		t.Fatalf("Put: %v", err)
	}
	snap := db.Snapshot()
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if decoded.Fingerprint() != snap.Fingerprint() {
		t.Errorf("fingerprint drifted across the round-trip:\n  encoded %s\n  decoded %s",
			snap.Fingerprint(), decoded.Fingerprint())
	}
	if decoded.Len() != snap.Len() {
		t.Errorf("Len = %d, want %d", decoded.Len(), snap.Len())
	}
	if !reflect.DeepEqual(decoded.Records(), snap.Records()) {
		t.Error("records differ after the round-trip")
	}
	if !reflect.DeepEqual(decoded.Subjects(), snap.Subjects()) {
		t.Error("subjects differ after the round-trip")
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, err := DecodeSnapshot(bytes.NewBufferString("not xml")); err == nil {
		t.Error("DecodeSnapshot accepted garbage")
	}
}

func TestReadXMLRejectsGarbage(t *testing.T) {
	db := New()
	if err := db.ReadXML(bytes.NewBufferString("nope")); err == nil {
		t.Error("ReadXML accepted garbage")
	}
	if db.Len() != 0 {
		t.Error("garbage load modified the database")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				name := string(rune('A' + i))
				if err := db.Put(deps.NewHardware("S"+name, "CPU", "m")); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				db.Query("S"+name, deps.KindHardware)
				db.Subjects()
				db.Len()
			}
		}(i)
	}
	wg.Wait()
	// Each goroutine observed its own CPU slot fifty times over: eight live
	// records, and the state eight single observations produce.
	if db.Len() != 8 {
		t.Errorf("Len = %d, want 8: re-observations must not accumulate", db.Len())
	}
	once := New()
	for i := 0; i < 8; i++ {
		if err := once.Put(deps.NewHardware("S"+string(rune('A'+i)), "CPU", "m")); err != nil {
			t.Fatal(err)
		}
	}
	if db.Fingerprint() != once.Fingerprint() {
		t.Error("fifty observations of each record fingerprint differently from one")
	}
}

// TestCurrentStateViews: the database holds current state. Continuous
// acquisition re-observes dependencies forever; graph builders must see one
// event per component, not one per observation.
func TestCurrentStateViews(t *testing.T) {
	db := New()
	err := db.Put(
		// NIC replaced twice: model A -> B -> A again.
		deps.NewHardware("S1", "NIC", "S1-modelA"),
		deps.NewHardware("S1", "NIC", "S1-modelB"),
		deps.NewHardware("S1", "NIC", "S1-modelA"),
		deps.NewHardware("S1", "Disk", "S1-SED900"),
		// svc upgraded: the new closure supersedes the old.
		deps.NewSoftware("svc", "S1", "libc6", "openssl-1.0.1"),
		deps.NewSoftware("svc", "S1", "libc6", "openssl-1.0.2"),
		// The same route observed in two capture windows, plus a genuinely
		// redundant second route between the same endpoints.
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S1", "Internet", "ToR1", "Core2"),
	)
	if err != nil {
		t.Fatal(err)
	}

	hw := db.HardwareOf("S1")
	if len(hw) != 2 {
		t.Fatalf("HardwareOf = %v, want latest per slot (NIC, Disk)", hw)
	}
	if hw[0].Type != "NIC" || hw[0].Dep != "S1-modelA" {
		t.Errorf("NIC slot = %+v, want the latest observation in first-seen order", hw[0])
	}

	sw := db.SoftwareOf("S1")
	if len(sw) != 1 || !reflect.DeepEqual(sw[0].Dep, []string{"libc6", "openssl-1.0.2"}) {
		t.Errorf("SoftwareOf = %v, want only the upgraded closure", sw)
	}

	nets := db.Networks("S1")
	if len(nets) != 2 {
		t.Fatalf("Networks = %v, want re-observation collapsed, redundant route kept", nets)
	}
	if nets[0].Route[1] != "Core1" || nets[1].Route[1] != "Core2" {
		t.Errorf("Networks order changed: %v", nets)
	}

	// The snapshot view reduces identically.
	s := db.Snapshot()
	if len(s.HardwareOf("S1")) != 2 || len(s.SoftwareOf("S1")) != 1 || len(s.Networks("S1")) != 2 {
		t.Errorf("snapshot views disagree: hw=%v sw=%v net=%v",
			s.HardwareOf("S1"), s.SoftwareOf("S1"), s.Networks("S1"))
	}
	// Query, Len and Records speak of the same state, not of the nine
	// observations that led to it.
	if got := len(db.Query("S1", deps.KindHardware)); got != 2 {
		t.Errorf("Query(hardware) = %d records, want the 2 live ones", got)
	}
	if db.Len() != 5 || len(db.Records()) != 5 || s.Len() != 5 {
		t.Errorf("Len = %d, Records = %d, snapshot Len = %d, want 5 live records", db.Len(), len(db.Records()), s.Len())
	}
}
