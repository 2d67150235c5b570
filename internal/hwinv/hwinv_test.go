package hwinv

import (
	"reflect"
	"strings"
	"testing"

	"indaas/internal/deps"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("S1", 42)
	b := Generate("S1", 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different machines")
	}
	if len(a.Components) != len(componentTypes) {
		t.Errorf("machine has %d components, want %d", len(a.Components), len(componentTypes))
	}
	for i, c := range a.Components {
		if c.Type != componentTypes[i] {
			t.Errorf("component %d type = %s, want %s", i, c.Type, componentTypes[i])
		}
		found := false
		for _, m := range Catalog[c.Type] {
			if m == c.Model {
				found = true
			}
		}
		if !found {
			t.Errorf("component %v not from catalog", c)
		}
	}
}

func TestGenerateFleet(t *testing.T) {
	fleet := GenerateFleet("S", 4, 7)
	if len(fleet) != 4 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	if fleet[0].Name != "S1" || fleet[3].Name != "S4" {
		t.Errorf("fleet names: %s..%s", fleet[0].Name, fleet[3].Name)
	}
	again := GenerateFleet("S", 4, 7)
	if !reflect.DeepEqual(fleet, again) {
		t.Error("fleet generation not deterministic")
	}
}

func TestCollectQualified(t *testing.T) {
	m := Machine{Name: "S1", Components: []Component{
		{Type: "CPU", Model: "Intel(R)X5550@2.6GHz"},
		{Type: "Disk", Model: "SED900"},
	}}
	recs := Collect(m, true)
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	// The paper's Fig. 3 convention: dep="S1-SED900".
	if recs[1].Hardware.Dep != "S1-SED900" {
		t.Errorf("qualified dep = %q, want S1-SED900", recs[1].Hardware.Dep)
	}
	if recs[0].Hardware.HW != "S1" || recs[0].Hardware.Type != "CPU" {
		t.Errorf("record header = %+v", recs[0].Hardware)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid record: %v", err)
		}
	}
}

func TestCollectBatchMode(t *testing.T) {
	m1 := Machine{Name: "S1", Components: []Component{{Type: "Disk", Model: "SED900"}}}
	m2 := Machine{Name: "S2", Components: []Component{{Type: "Disk", Model: "SED900"}}}
	recs := CollectFleet([]Machine{m1, m2}, false)
	if recs[0].Hardware.Dep != recs[1].Hardware.Dep {
		t.Error("batch mode should expose the shared model as one component")
	}
	qualified := CollectFleet([]Machine{m1, m2}, true)
	if qualified[0].Hardware.Dep == qualified[1].Hardware.Dep {
		t.Error("qualified mode should keep per-machine components distinct")
	}
}

// TestCollectFleet: a generated fleet's records are each machine's own, in
// fleet order.
func TestCollectFleet(t *testing.T) {
	fleet := GenerateFleet("S", 3, 5)
	var want []deps.Record
	for _, m := range fleet {
		recs := Collect(m, true)
		if len(recs) == 0 {
			t.Fatalf("%s: no records", m.Name)
		}
		for _, r := range recs {
			if r.Hardware.HW != m.Name {
				t.Errorf("record for %s among %s's", r.Hardware.HW, m.Name)
			}
		}
		want = append(want, recs...)
	}
	if got := CollectFleet(fleet, true); !reflect.DeepEqual(got, want) {
		t.Errorf("CollectFleet = %d records, want the %d of its machines in order", len(got), len(want))
	}
}

func TestCaseStudyInventoryShape(t *testing.T) {
	// The Fig. 3 sample: S1's CPU record should render in Table 1 format.
	m := Machine{Name: "S1", Components: []Component{{Type: "CPU", Model: "Intel(R)X5550@2.6GHz"}}}
	rec := Collect(m, true)[0]
	if !strings.Contains(rec.String(), `dep="S1-Intel(R)X5550@2.6GHz"`) {
		t.Errorf("record = %s", rec)
	}
}
