package agentsim

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/deps"
)

func newFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestFleetBootstrap(t *testing.T) {
	f := newFleet(t, Config{K: 4, Seed: 7})
	if f.Size() != 16 {
		t.Fatalf("k=4 fat tree should have 16 servers, got %d", f.Size())
	}
	batches, err := f.Bootstrap()
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if len(batches) != f.Size() {
		t.Fatalf("want one batch per node, got %d", len(batches))
	}
	servers := f.Servers()
	for i, batch := range batches {
		kinds := map[deps.Kind]int{}
		for _, r := range batch {
			if got := r.Subject(); got != servers[i] {
				t.Fatalf("batch %d: record subject %q, want %q", i, got, servers[i])
			}
			kinds[r.Kind]++
		}
		// lshw walk: CPU, Disk, RAM, NIC, RAID.
		if kinds[deps.KindHardware] != 5 {
			t.Errorf("node %s: %d hardware records, want 5", servers[i], kinds[deps.KindHardware])
		}
		if kinds[deps.KindSoftware] != 1 {
			t.Errorf("node %s: %d software records, want 1", servers[i], kinds[deps.KindSoftware])
		}
		if kinds[deps.KindNetwork] == 0 {
			t.Errorf("node %s: no mined network records", servers[i])
		}
	}
	// The software record carries the service's dependency closure.
	var sw deps.Record
	for _, r := range batches[0] {
		if r.Kind == deps.KindSoftware {
			sw = r
		}
	}
	if len(sw.Software.Dep) != 3 {
		t.Errorf("svc closure %v, want 3 packages", sw.Software.Dep)
	}
}

func TestNodeCollectFiltersSubjects(t *testing.T) {
	f := newFleet(t, Config{K: 4})
	n := f.Node(f.Servers()[0])
	all, err := n.Collect(nil)
	if err != nil || len(all) == 0 {
		t.Fatalf("Collect(nil) = %d records, %v", len(all), err)
	}
	none, err := n.Collect([]string{"not-a-server"})
	if err != nil || len(none) != 0 {
		t.Fatalf("Collect(other) = %d records, %v; want none", len(none), err)
	}
	own, err := n.Collect([]string{n.Server})
	if err != nil || len(own) != len(all) {
		t.Fatalf("Collect(self) = %d records, %v; want %d", len(own), err, len(all))
	}
}

func TestChurnDeterministicAndScoped(t *testing.T) {
	type sig struct {
		Server, Event string
		N             int
	}
	run := func(exclude ...string) []sig {
		f := newFleet(t, Config{K: 4, Seed: 3})
		c, err := f.ChurnStream(42, exclude...)
		if err != nil {
			t.Fatalf("ChurnStream: %v", err)
		}
		var out []sig
		for i := 0; i < 64; i++ {
			b, err := c.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if len(b.Records) == 0 {
				t.Fatalf("churn batch %d is empty (%s on %s)", i, b.Event, b.Server)
			}
			out = append(out, sig{b.Server, b.Event, len(b.Records)})
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different churn sequences")
	}
	probe := newFleet(t, Config{K: 4, Seed: 3}).Servers()[0]
	for i, s := range run(probe) {
		if s.Server == probe {
			t.Fatalf("batch %d touched excluded server %s", i, probe)
		}
	}
}

func TestChurnEventsChangeObservations(t *testing.T) {
	f := newFleet(t, Config{K: 4})
	n := f.Node(f.Servers()[0])
	before, _ := n.Records()
	flap := n.FlapNIC()
	if flap.Kind != deps.KindHardware || flap.Hardware.Type != "NIC" {
		t.Fatalf("FlapNIC produced %+v", flap)
	}
	for _, r := range before {
		if r.Equal(flap) {
			t.Fatalf("flap reproduced an existing observation: %+v", flap)
		}
	}
	// Flapping back returns to a catalog model, not the same one.
	again := n.FlapNIC()
	if again.Equal(flap) {
		t.Fatal("second flap did not change the NIC")
	}

	up, err := n.Upgrade("openssl", "1.0.99")
	if err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	found := false
	for _, d := range up.Software.Dep {
		if d == "openssl=1.0.99" {
			found = true
		}
	}
	if !found {
		t.Fatalf("upgraded closure %v misses openssl=1.0.99", up.Software.Dep)
	}
	if _, err := n.Upgrade("nginx", "1.0"); err == nil {
		t.Fatal("upgrading a package that was never installed should fail")
	}

	recs, err := n.Reobserve(8)
	if err != nil || len(recs) == 0 {
		t.Fatalf("Reobserve = %d records, %v", len(recs), err)
	}
}

func TestRunPacesAndCounts(t *testing.T) {
	f := newFleet(t, Config{K: 4})
	var pushed int64
	counts := make(chan int, 4096)
	p := PusherFunc(func(ctx context.Context, records []deps.Record) error {
		counts <- len(records)
		return nil
	})
	stats, err := f.Run(context.Background(), p, RunConfig{
		Rate: 4000, Duration: 300 * time.Millisecond, Concurrency: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	close(counts)
	for n := range counts {
		pushed += int64(n)
	}
	if stats.Records != pushed {
		t.Fatalf("stats.Records = %d, pusher saw %d", stats.Records, pushed)
	}
	if stats.Batches == 0 || stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The pacer admits Rate records/sec; allow generous slack for CI but
	// catch runaway (unpaced) generation.
	max := int64(float64(stats.Elapsed.Seconds())*4000*1.5) + 64
	if stats.Records > max {
		t.Fatalf("admitted %d records in %v; pacing is broken (max %d)", stats.Records, stats.Elapsed, max)
	}
	if stats.PushP99 < stats.PushP50 {
		t.Fatalf("p99 %v < p50 %v", stats.PushP99, stats.PushP50)
	}
}

func TestRunReportsPushErrors(t *testing.T) {
	f := newFleet(t, Config{K: 4})
	p := PusherFunc(func(ctx context.Context, records []deps.Record) error {
		return fmt.Errorf("refused")
	})
	stats, err := f.Run(context.Background(), p, RunConfig{Rate: 1000, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Errors == 0 || stats.Records != 0 {
		t.Fatalf("stats = %+v; want only errors", stats)
	}
}

// TestFleetStreamsIntoWatchedDaemon wires the whole pipeline: bootstrap a
// fleet into a live auditd over HTTP, subscribe a watcher to a deployment,
// replay churn through the retrying client, and assert the watcher receives
// delta re-audits while the churn stays incremental.
func TestFleetStreamsIntoWatchedDaemon(t *testing.T) {
	f := newFleet(t, Config{K: 4, Seed: 11})
	s := auditd.New(auditd.Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := auditd.NewClient(hs.URL, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	batches, err := f.Bootstrap()
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	for _, b := range batches {
		if _, err := cl.Ingest(ctx, auditd.WireRecords(b)); err != nil {
			t.Fatalf("bootstrap ingest: %v", err)
		}
	}

	// Watch two alternative deployments over the fleet's first four
	// servers; churn is excluded from them, then we touch one directly —
	// only the touched deployment is dirty, so the re-audit can splice.
	servers := f.Servers()
	req := &auditd.SubmitRequest{
		Title: "fleet watch",
		Deployments: []auditd.DeploymentWire{
			{Name: "primary", Servers: []string{servers[0], servers[1]}},
			{Name: "secondary", Servers: []string{servers[2], servers[3]}},
		},
	}
	w, err := cl.Watch(ctx, req)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer w.Close()
	first, err := w.Next()
	if err != nil {
		t.Fatalf("initial watch event: %v", err)
	}
	if first.Report == nil {
		t.Fatalf("initial event carries no report: %+v", first)
	}

	push := PusherFunc(func(ctx context.Context, records []deps.Record) error {
		_, err := cl.Ingest(ctx, auditd.WireRecords(records))
		return err
	})
	stats, err := f.Run(ctx, push, RunConfig{
		Rate: 2000, Duration: 400 * time.Millisecond, Concurrency: 8,
		Exclude: []string{servers[0], servers[1], servers[2], servers[3]},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Records == 0 || stats.Errors != 0 {
		t.Fatalf("churn stats = %+v", stats)
	}

	// Unwatched churn must not have produced events; now flap a watched NIC.
	if _, err := cl.Ingest(ctx, auditd.WireRecords([]deps.Record{f.Node(servers[0]).FlapNIC()})); err != nil {
		t.Fatalf("probe ingest: %v", err)
	}
	ev, err := w.Next()
	if err != nil {
		t.Fatalf("watch event after probe: %v", err)
	}
	if ev.Report == nil || ev.Error != "" {
		t.Fatalf("re-audit event = %+v", ev)
	}
	if len(ev.Trigger) == 0 || ev.Trigger[0] != servers[0] {
		t.Fatalf("event trigger %v, want %s", ev.Trigger, servers[0])
	}
	if !ev.Job.DeltaHit {
		t.Fatalf("re-audit was a cold recompute: %+v", ev.Job)
	}
	if len(ev.Job.DirtySubjects) == 0 {
		t.Fatalf("splice listed no dirty subjects: %+v", ev.Job)
	}

	// Flap the same NIC twice more, cycling it back to an already-observed
	// model. The depdb log now holds repeated observations of the same slot;
	// the re-audits must keep succeeding (a probe flapping forever is the
	// steady state of continuous acquisition).
	for i := 0; i < 2; i++ {
		if _, err := cl.Ingest(ctx, auditd.WireRecords([]deps.Record{f.Node(servers[0]).FlapNIC()})); err != nil {
			t.Fatalf("flap %d ingest: %v", i+2, err)
		}
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("watch event after flap %d: %v", i+2, err)
		}
		if ev.Report == nil || ev.Error != "" {
			t.Fatalf("re-audit after flap %d = %+v", i+2, ev)
		}
	}
}
