package riskgroup

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"indaas/internal/faultgraph"
	"indaas/internal/topology"
)

// fatTreeDeployment builds the Fig. 7 two-way deployment graph over a k-port
// fat tree — the workload whose k=24 instance motivated cancellable audits.
func fatTreeDeployment(t testing.TB, k int) *faultgraph.Graph {
	t.Helper()
	ft, err := topology.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	b := faultgraph.NewBuilder()
	var servers []faultgraph.NodeID
	for pod := 0; pod < 2; pod++ {
		srv := topology.FatTreeServer(pod, 0, 0)
		routes, err := ft.RoutesToInternet(srv)
		if err != nil {
			t.Fatal(err)
		}
		var routeNodes []faultgraph.NodeID
		for ri, route := range routes {
			var devs []faultgraph.NodeID
			for _, d := range route {
				devs = append(devs, b.Basic(d))
			}
			routeNodes = append(routeNodes, b.Gate(fmt.Sprintf("%s r%d", srv, ri), faultgraph.OR, devs...))
		}
		servers = append(servers, b.Gate(srv+" fails", faultgraph.AND, routeNodes...))
	}
	b.SetTop(b.Gate("deployment fails", faultgraph.AND, servers...))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMinimalRGsContextPreCanceled(t *testing.T) {
	g := fig4c(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fam, err := MinimalRGsContext(ctx, g, MinimalOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if fam != nil {
		t.Fatalf("canceled run must discard partial state, got %d RGs", len(fam))
	}
}

// TestMinimalRGsContextCancelMidRun cancels a fat-tree enumeration that
// takes several seconds uncancelled (k=18 ≈ 1 s, see PERFORMANCE.md) and
// requires the call to return ctx.Err() long before it could have finished.
func TestMinimalRGsContextCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	g := fatTreeDeployment(t, 18)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	fam, err := MinimalRGsContext(ctx, g, MinimalOptions{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (after %v)", err, elapsed)
	}
	if fam != nil {
		t.Fatalf("canceled run must discard partial state, got %d RGs", len(fam))
	}
	// Uncancelled the run takes ≳1 s (more under -race); the poll interval
	// is a few hundred µs of work, so a generous bound still proves the
	// cancellation landed mid-computation rather than at the end.
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestMinimalRGsContextDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload")
	}
	g := fatTreeDeployment(t, 18)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := MinimalRGsContext(ctx, g, MinimalOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

func TestSamplerContextPreCanceled(t *testing.T) {
	g := fig4c(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fam, err := Sampler{Rounds: 1000, Seed: 1}.SampleContext(ctx, g)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if fam != nil {
		t.Fatalf("canceled run must discard partial state, got %d RGs", len(fam))
	}
}

// TestSamplerContextHugeRounds: a round count near MaxInt is a long run,
// not an overflow — the block count stays positive, and the call returns
// the context's error instead of panicking on a negative slice length.
func TestSamplerContextHugeRounds(t *testing.T) {
	g := fig4c(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rounds := range []int{math.MaxInt, math.MaxInt - 63} {
		fam, err := Sampler{Rounds: rounds, Shrink: true, Seed: 1}.SampleContext(ctx, g)
		if !errors.Is(err, context.Canceled) || fam != nil {
			t.Fatalf("Rounds %d: got %d RGs, %v; want context.Canceled", rounds, len(fam), err)
		}
	}
}

// TestSamplerContextCancelMidRun cancels a huge sampling run fanned out
// across 8 workers. SampleContext only returns after every worker goroutine
// has exited (it waits on the worker WaitGroup), so a prompt return also
// proves all goroutines were released; -race in CI checks the shutdown for
// data races.
func TestSamplerContextCancelMidRun(t *testing.T) {
	g := fatTreeDeployment(t, 8)
	// ~50M rounds ≈ minutes of work: the test only passes through prompt
	// cancellation, never by finishing.
	s := Sampler{Rounds: 50_000_000, Bias: 0.97, Shrink: true, Seed: 1, Workers: 8}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	fam, err := s.SampleContext(ctx, g)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (after %v)", err, elapsed)
	}
	if fam != nil {
		t.Fatalf("canceled run must discard partial state, got %d RGs", len(fam))
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSamplerContextCompletedRunIgnoresLateCancel checks the boundary case:
// a context canceled only after Sample returned does not poison the result.
func TestSamplerContextCompletedRunIgnoresLateCancel(t *testing.T) {
	g := fig4c(t)
	ctx, cancel := context.WithCancel(context.Background())
	fam, err := Sampler{Rounds: 2000, Shrink: true, Seed: 7, Workers: 4}.SampleContext(ctx, g)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) == 0 {
		t.Fatal("expected detected RGs")
	}
}
