package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: the smoke
// test re-executes it with this variable set, and the harness's own child
// processes inherit it.
func TestMain(m *testing.M) {
	if os.Getenv("INDAAS_BENCH_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 1200; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		for _, pct := range []int{50, 90, 95, 99} {
			v, ok := percentile(s, float64(pct)/100)
			beyond := n - int(v) // values are 1..n, so v is its own rank
			if ok != (beyond >= minBeyond) {
				t.Fatalf("n=%d p%d: ok=%v with %d samples beyond", n, pct, ok, beyond)
			}
			if want := (pct*n + 99) / 100; int(v) != want { // ceil in integers
				t.Fatalf("n=%d p%d: got rank %v, want nearest rank %d", n, pct, v, want)
			}
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("an empty sample reported a percentile")
	}
	if _, ok := percentile(make([]float64, 99), 0.9); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond it")
	}
	if _, ok := percentile(make([]float64, 100), 0.9); !ok {
		t.Fatal("p90 of 100 samples has 10 beyond it")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if got, want := quartileSpread([]float64{13, 10, 11}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

// fakeClock advances only when slept on or told to; Sleep overshoots by a
// fixed amount, as a real timer does.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	slept     []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d + c.overshoot)
}

func TestPacerTimesFromDueTimeAndReportsLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), overshoot: 3 * time.Millisecond}
	start := clk.now
	p := newPacer(clk, 1000) // 1,000 records/s: a 100-record batch every 100 ms

	// Batch 0 is due at the start: no sleep, no lateness.
	due, late := p.next(100)
	if !due.Equal(start) || late != 0 || len(clk.slept) != 0 {
		t.Fatalf("batch 0: due %v late %v slept %v", due.Sub(start), late, clk.slept)
	}
	// Batch 1 is due at +100 ms; the caller is back at +10 ms, so the pacer
	// sleeps 90 ms and the timer's overshoot is the generator's lateness.
	clk.now = start.Add(10 * time.Millisecond)
	due, late = p.next(100)
	if due.Sub(start) != 100*time.Millisecond || late != 3*time.Millisecond {
		t.Fatalf("batch 1: due %v late %v", due.Sub(start), late)
	}
	if len(clk.slept) != 1 || clk.slept[0] != 90*time.Millisecond {
		t.Fatalf("batch 1: slept %v, want one 90ms sleep", clk.slept)
	}
	// The caller comes back 250 ms late (a slow acknowledgement). Batch 2
	// keeps its place on the schedule (+200 ms), so latency timed from the
	// due time charges the stall; the backlog is not generator lateness.
	clk.now = start.Add(450 * time.Millisecond)
	due, late = p.next(100)
	if due.Sub(start) != 200*time.Millisecond || late != 0 {
		t.Fatalf("batch 2: due %v late %v, want due 200ms and no generator lateness", due.Sub(start), late)
	}
	if got := clk.now.Sub(due); got != 250*time.Millisecond {
		t.Fatalf("a request sent now would be timed %v from its due time, want 250ms", got)
	}
	// The schedule follows the record count, not the batch count.
	p.next(50)
	due, _ = p.next(100)
	if due.Sub(start) != 350*time.Millisecond {
		t.Fatalf("after 350 records the next batch is due at %v, want 350ms", due.Sub(start))
	}
}

func TestSelfTimes(t *testing.T) {
	self, gap := selfTimes([]float64{10, 7, 4, 3}, []float64{1, 1.5})
	if want := []float64{3, 3, 1, 0.5}; !reflect.DeepEqual(self, want) || gap > 1e-9 {
		t.Fatalf("self %v gap %v, want %v and no gap", self, gap, want)
	}
	// A rung slower than the one outside it (noise) clips to zero and shows
	// up as a gap instead of a negative self time.
	self, gap = selfTimes([]float64{10, 11, 4, 3}, []float64{1, 1.5})
	if self[0] != 0 || math.Abs(gap-10) > 1e-9 {
		t.Fatalf("self %v gap %v, want a clipped first layer and a 10%% gap", self, gap)
	}
	// An operation that never reaches the engine: R3 and the parts are zero
	// and the server rung is all self time.
	self, gap = selfTimes([]float64{4, 2.5, 0.1, 0}, nil)
	if want := []float64{1.5, 2.4, 0.1, 0}; gap > 1e-9 || math.Abs(self[1]-want[1]) > 1e-12 || self[2] != want[2] || self[3] != 0 {
		t.Fatalf("self %v gap %v, want %v", self, gap, want)
	}
}

// sequences renders the first operations each generator would emit.
func sequences(t *testing.T, seed int64) []byte {
	t.Helper()
	var out []any
	for _, f := range []*fig7{{k: 8}, {k: 8, sampling: true}} {
		var err error
		if f.ps, f.recs, err = fatTreeInputs(f.k, 2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			out = append(out, f.request(f.tag(), seed, i))
		}
	}
	fleet, ps, _, err := fleetInputs(4, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &restartRead{ps: ps}
	for i := 0; i < 64; i++ {
		out = append(out, r.request(seed, i))
	}
	c := &churnWatch{fleet: fleet}
	if c.stream, err = fleet.ChurnStream(seed, fleet.Servers()[:4]...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, err := c.stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSeedDeterminesOperationSequence(t *testing.T) {
	a, b, c := sequences(t, 7), sequences(t, 7), sequences(t, 8)
	if string(a) != string(b) {
		t.Fatal("the same seed generated two different operation sequences")
	}
	if string(a) == string(c) {
		t.Fatal("two seeds generated the same operation sequence")
	}
}

func TestPairsNeverNameOneServerTwice(t *testing.T) {
	ft, _, err := fatTreeInputs(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, fl, _, err := fleetInputs(8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, ps := range map[string]pods{"fat tree": ft, "fleet": fl} {
		pod := map[string]int{}
		for p, servers := range ps {
			for _, s := range servers {
				pod[s] = p
			}
		}
		seen := map[[2]string]bool{}
		for seed := int64(1); seed <= 8; seed++ {
			for i := 0; i < 4000; i++ {
				a, b := ps.pair(seed, i)
				if a == b || pod[a] == pod[b] {
					t.Fatalf("%s seed %d op %d: pair (%s, %s) is not cross-pod", name, seed, i, a, b)
				}
				seen[[2]string{a, b}] = true
			}
		}
		if len(seen) < 100 {
			t.Fatalf("%s: only %d distinct pairs in 32,000 draws", name, len(seen))
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	var wl []workloadDef
	for _, w := range workloads {
		wl = append(wl, w.workloadDef)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(bf.Workloads, wl) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", bf.Workloads, wl)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	names := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		names[m.Name] = true
	}
}

// TestSmoke runs the whole harness — every workload, timed and traced,
// child processes and all — on ≈2 s windows, so it cannot rot between full
// runs. No bound is enforced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run takes about half a minute")
	}
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	out := filepath.Join(dir, "result.json")
	cmd := exec.Command(os.Args[0], "-smoke", "-dir", scratch, "-out", out)
	cmd.Env = append(os.Environ(), "INDAAS_BENCH_MAIN=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("smoke run: %v", err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Header    header                    `json:"header"`
		Workloads map[string]workloadReport `json:"workloads"`
		Correct   bool                      `json:"correct"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Header.Clients < 1 || doc.Header.NProc < 1 || doc.Header.GoVersion == "" {
		t.Fatalf("bad document: correct=%v header=%+v", doc.Correct, doc.Header)
	}
	for _, w := range workloads {
		rep, ok := doc.Workloads[w.Name]
		if !ok {
			t.Fatalf("%s missing from the result", w.Name)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Failures)
		}
		for _, name := range []string{"setup_s", "ops_per_s", "peak_rss_mb"} {
			if rep.EndToEnd[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.Name, name, rep.EndToEnd[name].Value)
			}
		}
		var missing []string
		for _, m := range perLayer {
			if _, ok := rep.PerLayer[m.Name]; !ok {
				missing = append(missing, m.Name)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s: per-layer metrics missing: %v", w.Name, missing)
		}
		if rep.PerLayer["ladder.r0_client_ms"].Value <= 0 {
			t.Errorf("%s: the ladder did not run", w.Name)
		}
	}
	if left, _ := os.ReadDir(scratch); len(left) > 0 {
		t.Errorf("the harness left %d entries in its scratch directory", len(left))
	}
}
