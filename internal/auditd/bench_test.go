package auditd

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"indaas/internal/store"
	"indaas/internal/topology"
)

// benchServer starts a service, primes it with one completed quickRequest
// audit, and returns the server plus the primed request.
func benchServer(b *testing.B, cfg Config) (*Server, *SubmitRequest) {
	b.Helper()
	s := New(cfg)
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	req := quickRequest("bench")
	st, err := s.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	end, err := s.WaitDone(ctx, st.ID, 30*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	if end.State != StateDone {
		b.Fatalf("priming job finished %s (%s)", end.State, end.Error)
	}
	return s, req
}

// BenchmarkSubmitMemoryHit measures the hot submit path when the result is
// already in the in-memory LRU: the latency every repeat client sees.
func BenchmarkSubmitMemoryHit(b *testing.B) {
	s, req := benchServer(b, Config{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateDone || !st.Cached {
			b.Fatalf("want cached done, got %+v", st)
		}
	}
}

// BenchmarkSubmitMemoryHitTraced is the telemetry-era twin of
// BenchmarkSubmitMemoryHit: same hot path, now with phase tracing threaded
// through the pipeline. It must match the untraced numbers (≤80 allocs/op,
// enforced by TestMemoryHitAllocBudget) because hit-path jobs never
// allocate a trace — tracing costs are deferred until a computation runs.
func BenchmarkSubmitMemoryHitTraced(b *testing.B) {
	s, req := benchServer(b, Config{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	var last JobStatus
	for i := 0; i < b.N; i++ {
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateDone || !st.Cached {
			b.Fatalf("want cached done, got %+v", st)
		}
		last = st
	}
	b.StopTimer()
	if tr, err := s.Trace(last.ID); err != nil || len(tr.Phases) != 0 {
		b.Fatalf("hit-path job grew a trace: %+v (err %v)", tr.Phases, err)
	}
}

// BenchmarkSubmitDiskHit measures the disk-tier fallback: the in-memory LRU
// is emptied before every submit, so each iteration pays the store read and
// checksum verification a restarted daemon pays on its first hit per key
// (the record's bytes are adopted as read; nothing decodes).
func BenchmarkSubmitDiskHit(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s, req := benchServer(b, Config{Workers: 1, Store: st})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.mu.Lock()
		s.cache = newMemoryTier(s.cfg.CacheEntries)
		s.tiers[0] = s.cache
		s.mu.Unlock()
		b.StartTimer()
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateDone || !st.DiskHit {
			b.Fatalf("want disk hit, got %+v", st)
		}
	}
}

// fig7Server boots a memory server whose database holds the network records
// of a 2-way deployment on a k-port fat tree — the Fig. 7 workload — and
// returns it with the deployment's audit request (minimal-rg, the exact
// algorithm the paper times).
func fig7Server(b testing.TB, k int, cfg Config) (*Server, *SubmitRequest) {
	b.Helper()
	ft, err := topology.FatTree(k)
	if err != nil {
		b.Fatal(err)
	}
	servers := []string{topology.FatTreeServer(0, 0, 0), topology.FatTreeServer(1, 0, 0)}
	records, err := ft.NetworkRecords(servers)
	if err != nil {
		b.Fatal(err)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	s := New(cfg)
	b.Cleanup(func() { benchShutdown(b, s) })
	if _, err := s.Ingest(&IngestRequest{Records: WireRecords(records)}); err != nil {
		b.Fatal(err)
	}
	req := &SubmitRequest{
		Title:       "fig7",
		Deployments: []DeploymentWire{{Name: fmt.Sprintf("fattree-k%d", k), Servers: servers}},
	}
	return s, req
}

// BenchmarkFig7DeltaResubmit is the delta-audit acceptance measurement on
// the Fig. 7 k=16 workload: each iteration ingests one record unrelated to
// the audited deployment (which, when the address named the whole database,
// invalidated it — the whole multi-minute recompute before delta audits) and
// re-submits the audit, which must finish instantly as a plain memory hit:
// the address names only the records the deployment reads. Compare against
// BenchmarkFig7ColdAudit, the price every such ingest used to cost.
func BenchmarkFig7DeltaResubmit(b *testing.B) {
	s, req := fig7Server(b, 16, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cold, err := s.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	if end, err := s.WaitDone(ctx, cold.ID, time.Minute); err != nil || end.State != StateDone {
		b.Fatalf("cold audit: %v %+v", err, end)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(&IngestRequest{Records: []RecordWire{
			{Kind: "hardware", HW: fmt.Sprintf("spare-%d", i), Type: "NIC", Dep: fmt.Sprintf("nic-%d", i)},
		}}); err != nil {
			b.Fatal(err)
		}
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if st.State != StateDone || !st.Cached {
			b.Fatalf("resubmission was not a memory hit: %+v", st)
		}
	}
}

// BenchmarkWatchRefreshPlan times what a watch refresher pays per refresh
// when the ingest that woke it missed the watched servers: the unjournaled
// re-submit against a fresh snapshot, i.e. the scope digests of the four
// audited servers plus a memory hit. The cost must not follow the size of
// the batch ingested since the last refresh, 64 records or 50k.
func BenchmarkWatchRefreshPlan(b *testing.B) {
	for _, n := range []int{64, 50_000} {
		b.Run(fmt.Sprintf("ingest=%d", n), func(b *testing.B) {
			s := New(Config{Workers: 1})
			b.Cleanup(func() { benchShutdown(b, s) })
			gen := 0
			unrelated := func() *IngestRequest {
				gen++
				batch := make([]RecordWire, n)
				for i := range batch {
					host := fmt.Sprintf("spare-%d-%d", gen, (i*7919)%n)
					batch[i] = RecordWire{Kind: "hardware", HW: host, Type: "NIC", Dep: host + "-X520"}
				}
				return &IngestRequest{Records: batch}
			}
			refresh := func() {
				st, err := s.submitJob(auditKind, deltaAuditRequest("refresh"), origin{refresh: true})
				if err != nil || st.State != StateDone || !st.Cached {
					b.Fatalf("refresh was not a memory hit: %+v %v", st, err)
				}
			}
			if _, err := s.Ingest(&IngestRequest{Records: deltaRecords()}); err != nil {
				b.Fatal(err)
			}
			cold, err := s.Submit(deltaAuditRequest("cold"))
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if end, err := s.WaitDone(ctx, cold.ID, time.Minute); err != nil || end.State != StateDone {
				b.Fatalf("cold audit: %v %+v", err, end)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := s.Ingest(unrelated()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				refresh()
			}
		})
	}
}

// BenchmarkFig7ColdAudit is the delta benchmark's baseline: the full k=16
// minimal-RG computation a delta hit avoids.
func BenchmarkFig7ColdAudit(b *testing.B) {
	s, req := fig7Server(b, 16, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := *req
		r.Deployments = []DeploymentWire{{Name: fmt.Sprintf("fattree-k16 #%d", i), Servers: req.Deployments[0].Servers}}
		st, err := s.Submit(&r)
		if err != nil {
			b.Fatal(err)
		}
		end, err := s.WaitDone(ctx, st.ID, time.Minute)
		if err != nil || end.State != StateDone {
			b.Fatalf("cold audit: %v %+v", err, end)
		}
	}
}

// BenchmarkColdCompute measures a full audit computation of the benchmark
// workload — the cost a cache hit (memory or disk) avoids. Each iteration
// submits a distinct cache key by varying the deployment name.
func BenchmarkColdCompute(b *testing.B) {
	s, req := benchServer(b, Config{Workers: 1, CacheEntries: -1})
	coldComputeLoop(b, s, req)
}

// BenchmarkColdComputeJournaled is BenchmarkColdCompute on a durable
// daemon: each job additionally pays the crash-safety writes — the job
// journal Put before it enters the queue, the result write-through, and the
// journal tombstone once it settles.
func BenchmarkColdComputeJournaled(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s, req := benchServer(b, Config{Workers: 1, CacheEntries: -1, Store: st})
	coldComputeLoop(b, s, req)
}

func coldComputeLoop(b *testing.B, s *Server, req *SubmitRequest) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := *req
		r.Deployments = []DeploymentWire{
			{Name: "s1+s2 #" + string(rune('a'+i%26)) + time.Duration(i).String(), Servers: []string{"s1", "s2"}},
		}
		st, err := s.Submit(&r)
		if err != nil {
			b.Fatal(err)
		}
		end, err := s.WaitDone(ctx, st.ID, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		if end.State != StateDone {
			b.Fatalf("job finished %s (%s)", end.State, end.Error)
		}
	}
}

// BenchmarkServedPrivateAuditHeld times one cold served private audit of
// Table 2's four clouds — every pair and triple — whose package lists are
// registered with the daemon. The request names no protocol: where the
// datasets live picks it.
func BenchmarkServedPrivateAuditHeld(b *testing.B) {
	s := New(Config{Workers: 1, CacheEntries: -1})
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	})
	for name, comps := range table2Sets(b) {
		if _, err := s.RegisterProvider(&RegisterProviderRequest{Name: name, Components: comps}); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.PrivateAudit(table2Request("table 2 held", nil))
		if err != nil {
			b.Fatal(err)
		}
		end, err := s.WaitDone(ctx, st.ID, 5*time.Minute)
		if err != nil || end.State != StateDone || end.Cached {
			b.Fatalf("held private audit: %v %+v", err, end)
		}
	}
}

// BenchmarkWatchFrame times rendering one SSE frame of a watch event whose
// report was resolved from stored bytes: "splice" is what handleWatch
// writes, "marshal" the json.Marshal of the whole event it equals, which
// encodes the report again.
func BenchmarkWatchFrame(b *testing.B) {
	s := New(Config{Workers: 1})
	b.Cleanup(func() { benchShutdown(b, s) })
	if _, err := s.Ingest(&IngestRequest{Records: deltaRecords()}); err != nil {
		b.Fatal(err)
	}
	sub, err := s.Watch(deltaAuditRequest("frame"), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	var ev *WatchEvent
	select {
	case raw := <-sub.Events():
		ev = raw.(*WatchEvent)
	case <-time.After(30 * time.Second):
		b.Fatal("no initial watch event")
	}
	if ev.enc == nil {
		b.Fatalf("initial event = %+v, want stored bytes", ev)
	}
	for _, bc := range []struct {
		name   string
		render func() ([]byte, error)
	}{
		{"splice", ev.frameJSON},
		{"marshal", func() ([]byte, error) { return json.Marshal(ev) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.render(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIngestDurable times one acknowledged single-record ingest that
// changes the database, on a durable service with an fsyncing store: the
// commit appends one chain segment, one store record and one fsync.
func BenchmarkIngestDurable(b *testing.B) {
	st, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s := New(Config{Workers: 1, Store: st})
	defer benchShutdown(b, s)
	if _, err := s.Ingest(&IngestRequest{Records: deltaRecords()}); err != nil {
		b.Fatal(err)
	}
	puts := st.Stats().Puts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ack, err := s.Ingest(&IngestRequest{Records: []RecordWire{
			{Kind: "hardware", HW: "s1", Type: "NIC", Dep: fmt.Sprintf("nic-%d", i)},
		}})
		if err != nil || !ack.Durable {
			b.Fatalf("ingest %d = %+v, %v", i, ack, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(st.Stats().Puts-puts)/float64(b.N), "puts/op")
}
