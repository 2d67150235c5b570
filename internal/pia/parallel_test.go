package pia

// Parallelism tests: the worker pool must be invisible in the report (bit-
// identical results for every worker count), honor cancellation promptly,
// propagate per-pair errors, and feed the telemetry trace.

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"testing"
	"time"

	"indaas/internal/telemetry"
)

// normalizeReport strips wall-clock fields so runs can be compared.
var elapsedField = regexp.MustCompile(`"elapsed_ns":\d+`)

func normalizeReport(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return elapsedField.ReplaceAllString(string(b), `"elapsed_ns":0`)
}

// TestParallelMatchesSequential: for every protocol, workers=4 produces the
// same ranked report as workers=1 — minima merges and cardinalities are
// order-free, so parallelism cannot change a single byte.
func TestParallelMatchesSequential(t *testing.T) {
	providers := fourProviders()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"cleartext", Config{Protocol: ProtocolCleartext}},
		{"cleartext minhash", Config{Protocol: ProtocolCleartext, MinHashM: 128}},
		{"p-sop", Config{Protocol: ProtocolPSOP}},
		{"p-sop minhash", Config{Protocol: ProtocolPSOP, MinHashM: 64}},
		{"ks", Config{Protocol: ProtocolKS, Bits: 128, MinHashM: 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.cfg
			seq.Workers = 1
			par := tc.cfg
			par.Workers = 4
			deployments := append(AllPairs(4), AllTriples(4)...)
			repSeq, err := AuditDeployments(seq, providers, deployments)
			if err != nil {
				t.Fatal(err)
			}
			repPar, err := AuditDeployments(par, providers, deployments)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := normalizeReport(t, repPar), normalizeReport(t, repSeq); got != want {
				t.Fatalf("parallel report diverges:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestParallelWorkerCap: more workers than deployments is fine — the pool
// shrinks to the work available.
func TestParallelWorkerCap(t *testing.T) {
	rep, err := AuditDeployments(Config{Protocol: ProtocolCleartext, Workers: 64},
		fourProviders(), AllPairs(4))
	if err != nil || len(rep.Entries) != 6 {
		t.Fatalf("rep = %v, err = %v", rep, err)
	}
}

// TestParallelErrorPropagates: a bad deployment in the middle of a parallel
// batch fails the whole audit with that deployment's error.
func TestParallelErrorPropagates(t *testing.T) {
	deployments := append(AllPairs(4), Deployment{0, 99})
	_, err := AuditDeployments(Config{Protocol: ProtocolCleartext, Workers: 4},
		fourProviders(), deployments)
	if err == nil {
		t.Fatal("out-of-range provider accepted by the parallel path")
	}
}

// TestCancellation: an already-canceled context aborts both the sequential
// and the parallel path with ctx's error before any protocol rounds run.
func TestCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := AuditDeploymentsContext(ctx, Config{Protocol: ProtocolCleartext, Workers: workers},
			fourProviders(), AllPairs(4))
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestCancellationMidRun: cancellation during a slow P-SOP batch aborts it
// rather than running to completion.
func TestCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	big := make([]string, 400)
	for i := range big {
		big[i] = fmt.Sprintf("pkg:p%03d", i)
	}
	providers := []Provider{
		{Name: "A", Components: append([]string{"uniq-a"}, big...)},
		{Name: "B", Components: append([]string{"uniq-b"}, big...)},
	}
	_, err := AuditDeploymentsContext(ctx, Config{Protocol: ProtocolPSOP, Workers: 2},
		providers, []Deployment{{0, 1}, {1, 0}, {0, 1}})
	if err == nil {
		t.Fatal("timed-out audit completed")
	}
}

// TestTraceReceivesPairs: a telemetry trace on the context records the
// pia-pairs phase and the audited pair count.
func TestTraceReceivesPairs(t *testing.T) {
	tr := telemetry.New()
	ctx := telemetry.WithTrace(context.Background(), tr)
	if _, err := AuditDeploymentsContext(ctx, Config{Protocol: ProtocolCleartext, Workers: 2},
		fourProviders(), AllPairs(4)); err != nil {
		t.Fatal(err)
	}
	var sawPhase bool
	for _, ph := range tr.Snapshot() {
		if ph.Name == "pia-pairs" {
			sawPhase = true
		}
	}
	if !sawPhase {
		t.Fatalf("trace phases = %+v, want pia-pairs", tr.Snapshot())
	}
	if got := tr.Counts()["pairs_audited"]; got != 6 {
		t.Fatalf("pairs_audited = %d, want 6", got)
	}
}
