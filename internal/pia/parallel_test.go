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

// TestParallelMatchesSequential: held (cleartext) and proxied (P-SOP)
// deployments alike, workers=4 produces the same ranked report as workers=1
// — cardinalities are order-free, so parallelism cannot change a single
// byte.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name      string
		providers []Provider
	}{
		{"cleartext", fourProviders()},
		{"p-sop", asParties(fourProviders())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deployments := append(AllPairs(4), AllTriples(4)...)
			repSeq, err := AuditDeployments(Config{Workers: 1}, tc.providers, deployments)
			if err != nil {
				t.Fatal(err)
			}
			repPar, err := AuditDeployments(Config{Workers: 4}, tc.providers, deployments)
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
	rep, err := AuditDeployments(Config{Workers: 64},
		fourProviders(), AllPairs(4))
	if err != nil || len(rep.Entries) != 6 {
		t.Fatalf("rep = %v, err = %v", rep, err)
	}
}

// TestParallelErrorPropagates: a bad deployment in the middle of a parallel
// batch fails the whole audit with that deployment's error.
func TestParallelErrorPropagates(t *testing.T) {
	deployments := append(AllPairs(4), Deployment{0, 99})
	_, err := AuditDeployments(Config{Workers: 4},
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
		_, err := AuditDeploymentsContext(ctx, Config{Workers: workers},
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
	providers := asParties([]Provider{
		{Name: "A", Components: append([]string{"uniq-a"}, big...)},
		{Name: "B", Components: append([]string{"uniq-b"}, big...)},
	})
	_, err := AuditDeploymentsContext(ctx, Config{Workers: 2},
		providers, []Deployment{{0, 1}, {1, 0}, {0, 1}})
	if err == nil {
		t.Fatal("timed-out audit completed")
	}
}

// TestTraceReceivesPairs: a telemetry trace on the context records the
// pia-pairs phase, the audited pair count and how each deployment ran: with
// CloudA keeping its own dataset, its three pairs run P-SOP and the other
// three are counted in cleartext.
func TestTraceReceivesPairs(t *testing.T) {
	tr := telemetry.New()
	ctx := telemetry.WithTrace(context.Background(), tr)
	providers := fourProviders()
	providers[0] = AsParty(providers[0], 1)
	rep, err := AuditDeploymentsContext(ctx, Config{Workers: 2}, providers, AllPairs(4))
	if err != nil {
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
	var sent int64
	for _, e := range rep.Entries {
		sent += e.BytesSent
	}
	counts := tr.Counts()
	if counts["pairs_audited"] != 6 || counts["pia_psop_deployments"] != 3 || counts["pia_cleartext_deployments"] != 3 ||
		sent == 0 || counts["psop_bytes_sent"] != sent {
		t.Fatalf("trace counts = %v, want 6 pairs, 3 p-sop, 3 cleartext and %d bytes", counts, sent)
	}
}
