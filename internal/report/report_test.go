package report

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func sampleAudits() []DeploymentAudit {
	return []DeploymentAudit{
		{
			Deployment: "risky",
			Expected:   2,
			RGs: []RGEntry{
				{Components: []string{"tor"}, Size: 1},
				{Components: []string{"a", "b"}, Size: 2},
			},
			Unexpected:  1,
			Score:       3,
			FailureProb: 0.3,
		},
		{
			Deployment: "safe",
			Expected:   2,
			RGs: []RGEntry{
				{Components: []string{"x", "y"}, Size: 2},
				{Components: []string{"p", "q"}, Size: 2},
			},
			Score:       4,
			FailureProb: 0.02,
		},
		{
			Deployment: "middling",
			Expected:   2,
			RGs: []RGEntry{
				{Components: []string{"x", "y"}, Size: 2},
				{Components: []string{"p", "q"}, Size: 2},
				{Components: []string{"r", "s"}, Size: 2},
			},
			Score:       6,
			FailureProb: 0.05,
		},
	}
}

func order(r *Report) []string {
	var out []string
	for _, a := range r.Audits {
		out = append(out, a.Deployment)
	}
	return out
}

func TestSizeVector(t *testing.T) {
	a := sampleAudits()[0]
	if got := a.SizeVector(); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("SizeVector = %v", got)
	}
	empty := DeploymentAudit{}
	if got := empty.SizeVector(); len(got) != 0 {
		t.Errorf("empty SizeVector = %v", got)
	}
}

func TestRankBySizeVector(t *testing.T) {
	r := &Report{Audits: sampleAudits()}
	r.Rank(CompareBySizeVector)
	if got := order(r); !reflect.DeepEqual(got, []string{"safe", "middling", "risky"}) {
		t.Errorf("size-vector order = %v", got)
	}
}

func TestRankByFailureProb(t *testing.T) {
	r := &Report{Audits: sampleAudits()}
	r.Rank(CompareByFailureProb)
	if got := order(r); !reflect.DeepEqual(got, []string{"safe", "middling", "risky"}) {
		t.Errorf("probability order = %v", got)
	}
	// NaN probabilities sink to the bottom.
	r.Audits[0].FailureProb = math.NaN()
	r.Rank(CompareByFailureProb)
	if r.Audits[len(r.Audits)-1].Deployment != "safe" {
		t.Errorf("NaN should rank last: %v", order(r))
	}
}

func TestRankByScore(t *testing.T) {
	r := &Report{Audits: sampleAudits()}
	r.Rank(CompareByScore)
	if got := order(r); !reflect.DeepEqual(got, []string{"middling", "safe", "risky"}) {
		t.Errorf("score order = %v", got)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	r := &Report{Audits: []DeploymentAudit{
		{Deployment: "bbb", Score: 1},
		{Deployment: "aaa", Score: 1},
	}}
	r.Rank(CompareByScore)
	if got := order(r); !reflect.DeepEqual(got, []string{"aaa", "bbb"}) {
		t.Errorf("tie-break order = %v", got)
	}
}

func TestBest(t *testing.T) {
	r := &Report{}
	if _, err := r.Best(); err == nil {
		t.Error("Best on empty report succeeded")
	}
	r.Audits = sampleAudits()
	r.Rank(CompareByFailureProb)
	best, err := r.Best()
	if err != nil || best.Deployment != "safe" {
		t.Errorf("Best = %v, %v", best, err)
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{Title: "demo", Audits: sampleAudits()}
	r.Rank(CompareBySizeVector)
	var sb strings.Builder
	if err := r.Render(&sb, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "#1 safe", "Pr(outage)", "… 1 more RGs", "unexpected-RGs=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestReportRenderUnweighted(t *testing.T) {
	r := &Report{Title: "u", Audits: []DeploymentAudit{{
		Deployment:  "d",
		RGs:         []RGEntry{{Components: []string{"c"}, Size: 1, Prob: math.NaN(), Importance: math.NaN()}},
		FailureProb: math.NaN(),
	}}}
	var sb strings.Builder
	if err := r.Render(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Errorf("unweighted render leaks NaN:\n%s", sb.String())
	}
}

func TestPIAReportRankAndRender(t *testing.T) {
	r := &PIAReport{Title: "pia", Entries: []PIAEntry{
		{Providers: []string{"B", "C"}, Jaccard: 0.5},
		{Providers: []string{"A", "B"}, Jaccard: 0.1},
		{Providers: []string{"A", "C"}, Jaccard: 0.1},
	}}
	r.Rank()
	if r.Entries[0].Providers[1] != "B" { // A&B before A&C on tie
		t.Errorf("PIA order = %v", r.Entries)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "B & C") {
		t.Errorf("PIA render:\n%s", out)
	}
}

// denseLess is the comparator Rank used to run — two dense vectors per
// comparison — with the one change that makes it defined everywhere: sizes
// below 1 are left out. The reference for what order Rank must keep.
func denseLess(a, b *DeploymentAudit) bool {
	dense := func(d *DeploymentAudit) []int {
		var v []int
		for _, rg := range d.RGs {
			if rg.Size < 1 {
				continue
			}
			for len(v) < rg.Size {
				v = append(v, 0)
			}
			v[rg.Size-1]++
		}
		return v
	}
	av, bv := dense(a), dense(b)
	for k := 0; k < len(av) || k < len(bv); k++ {
		var x, y int
		if k < len(av) {
			x = av[k]
		}
		if k < len(bv) {
			y = bv[k]
		}
		if x != y {
			return x < y
		}
	}
	return a.Deployment < b.Deployment
}

// TestRankSurvivesHostileSizes: a report off the wire can carry any size —
// PR 12's stored fixture has a 0 — and both the cluster fan-out and delta
// splicing rank what they decode. Rank must neither index by such a size nor
// allocate by it, and must order sane reports exactly as before.
func TestRankSurvivesHostileSizes(t *testing.T) {
	rank := func(rep *Report) []string {
		rep.Rank(CompareBySizeVector)
		return order(rep)
	}
	want := func(rep *Report) []string {
		ref := &Report{Audits: append([]DeploymentAudit(nil), rep.Audits...)}
		sort.SliceStable(ref.Audits, func(i, j int) bool { return denseLess(&ref.Audits[i], &ref.Audits[j]) })
		return order(ref)
	}
	var reps []*Report
	for _, seed := range differentialSeeds(t)[:3] { // the goldens and PR 12's stored payload
		rep := new(Report)
		if err := DecodeJSON(seed, rep); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 500; i++ {
		reps = append(reps, randReport(rng))
	}
	for _, rep := range reps {
		if w, got := want(rep), rank(rep); !reflect.DeepEqual(got, w) {
			t.Fatalf("Rank order %v, the dense comparator's %v", got, w)
		}
	}

	hostile := new(Report)
	if err := DecodeJSON([]byte(`{"audits":[
		{"deployment":"huge","rgs":[{"size":1000000000000},{"size":2}]},
		{"deployment":"negative","rgs":[{"size":-3},{"size":2},{"size":0}]},
		{"deployment":"plain","rgs":[{"size":2},{"size":2}]},
		{"deployment":"none","rgs":null}]}`), hostile); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := rank(hostile)
	runtime.ReadMemStats(&after)
	// Fewest size-2 RGs first; "huge" trails "negative" by its one extra RG.
	if w := []string{"none", "negative", "huge", "plain"}; !reflect.DeepEqual(got, w) {
		t.Errorf("hostile sizes ranked %v, want %v", got, w)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 4096 {
		t.Errorf("ranking 7 RGs allocated %d bytes", spent)
	}
}
