package sia

import (
	"reflect"
	"testing"

	"indaas/internal/depdb"
	"indaas/internal/deps"
)

// TestDirtyDeployments pins the record→cone mapping: a diffed record dirties
// exactly the deployments that include its subject and want its kind.
func TestDirtyDeployments(t *testing.T) {
	db := depdb.New()
	put := func(records ...deps.Record) {
		t.Helper()
		if err := db.Put(records...); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []string{"s1", "s2", "s3"} {
		put(
			deps.NewNetwork(s, "Internet", "tor-"+s),
			deps.NewHardware(s, "Disk", s+"-disk"),
		)
	}
	before := db.Snapshot()
	put(deps.NewHardware("s2", "NIC", "s2-nic")) // hardware change on s2 only
	after := db.Snapshot()
	d := before.Diff(after)

	specs := []GraphSpec{
		{Deployment: "a", Servers: []string{"s1", "s3"}},                                        // untouched
		{Deployment: "b", Servers: []string{"s1", "s2"}},                                        // contains s2
		{Deployment: "c", Servers: []string{"s2"}, Kinds: []deps.Kind{deps.KindNetwork}},        // s2, but network-only
		{Deployment: "d", Servers: []string{"s2", "s3"}, Kinds: []deps.Kind{deps.KindHardware}}, // s2, hardware wanted
	}
	dirty, subjects := DirtyDeployments(specs, d)
	want := []bool{false, true, false, true}
	if !reflect.DeepEqual(dirty, want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	if !reflect.DeepEqual(subjects, []string{"s2"}) {
		t.Fatalf("subjects = %v, want [s2]", subjects)
	}

	// An empty diff dirties nothing.
	if dirty, subjects := DirtyDeployments(specs, after.Diff(after)); dirty[1] || len(subjects) != 0 {
		t.Fatalf("empty diff dirtied something: %v %v", dirty, subjects)
	}
}
