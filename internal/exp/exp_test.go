package exp

import (
	"strings"
	"testing"
)

// TestFig6aAcceptance reproduces the §6.2.1 case study end to end and
// checks every published number: 190 deployments, 27 without unexpected
// RGs, {Rack5, Rack29} suggested and uniquely optimal at p = 0.1.
func TestFig6aAcceptance(t *testing.T) {
	rounds := 40_000
	if testing.Short() {
		rounds = 10_000
	}
	res, err := RunFig6a(Fig6aConfig{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	tbl := res.Render()
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Rack5+Rack29") {
		t.Errorf("rendered table missing the suggestion:\n%s", sb.String())
	}
}

// TestFig6bAcceptance reproduces the §6.2.2 case study: correlated VM
// placement, the paper's top-4 RGs, the Server2+Server3 suggestion, and a
// clean re-audit after migration.
func TestFig6bAcceptance(t *testing.T) {
	res, err := RunFig6b()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTable2Acceptance reproduces Table 2 with exact cleartext Jaccards
// (every entry within tolerance, both rankings identical).
func TestTable2Acceptance(t *testing.T) {
	res, err := RunTable2(Table2Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestTable2PrivateMatchesCleartext runs the actual private protocol on one
// deployment and confirms it returns the same Jaccard as the cleartext
// computation (the full private Table 2 runs in cmd/experiments).
func TestTable2PrivateMatchesCleartext(t *testing.T) {
	if testing.Short() {
		t.Skip("private protocol run")
	}
	clear, err := RunTable2(Table2Config{})
	if err != nil {
		t.Fatal(err)
	}
	priv, err := RunTable2(Table2Config{Private: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := priv.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := range clear.TwoWay {
		if clear.TwoWay[i].Key != priv.TwoWay[i].Key ||
			clear.TwoWay[i].Measured != priv.TwoWay[i].Measured {
			t.Errorf("entry %d differs: cleartext %+v, private %+v",
				i, clear.TwoWay[i], priv.TwoWay[i])
		}
	}
}

// TestTable3Acceptance checks the generated topologies against Table 3.
func TestTable3Acceptance(t *testing.T) {
	res, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFig7Acceptance runs the accuracy/cost comparison at miniature scale.
func TestFig7Acceptance(t *testing.T) {
	cfg := Fig7Config{Arities: []int{4, 8}, RoundCounts: []int{500, 2_000, 20_000}}
	res, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	// The exact algorithm's family on k=4, 2-way: per-server families are
	// {ToR} ∪ (2 aggs × their core groups); ground truth must be non-empty
	// and all sampling detections ≤ 1.
	for _, p := range res.Points {
		if p.MinimalRGs == 0 {
			t.Errorf("no minimal RGs on %s", p.Topology)
		}
		if p.Detected < 0 || p.Detected > 1 {
			t.Errorf("detection %v out of range", p.Detected)
		}
	}
}

// TestFig8Acceptance runs the protocol comparison at miniature scale and
// checks the qualitative cost shape.
func TestFig8Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto-heavy")
	}
	cfg := Fig8Config{
		Parties:      []int{2, 3},
		PSOPElements: []int{20, 40, 80},
		KSElements:   []int{10, 20, 40, 80},
	}
	res, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFig9Acceptance runs the SIA-vs-PIA comparison at miniature scale.
func TestFig9Acceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("crypto-heavy")
	}
	cfg := Fig9Config{
		ProviderCounts: []int{4},
		Elements:       40,
		Rounds:         2_000,
		KSMinHashM:     32,
	}
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
	// 4 methods × 1 provider count × 2 arities.
	if len(res.Points) != 8 {
		t.Errorf("points = %d, want 8", len(res.Points))
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tbl.Append("x", 1.5)
	tbl.Append("longer-cell", "v")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1.5000") {
		t.Errorf("render output:\n%s", out)
	}
}
