package auditd

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIngestSubmitRecommend interleaves ingests, audits and
// recommendations on a durable server. The -race run in CI is the real
// assertion — ingest persistence, snapshot resolution, scope digests and
// memo fills all racing — while the checks here pin that every
// job completes and every ingest lands.
func TestConcurrentIngestSubmitRecommend(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Config{Workers: 4, QueueDepth: 256, Store: st})
	defer gracefulShutdown(t, s)

	// Seed the pool so audits and recommendations always have subjects.
	mustIngest(t, s, deltaRecords())

	const (
		ingesters    = 3
		auditors     = 3
		recommenders = 2
		rounds       = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, (ingesters+auditors+recommenders)*rounds)

	for w := 0; w < ingesters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := s.Ingest(&IngestRequest{Records: []RecordWire{
					{Kind: "hardware", HW: fmt.Sprintf("m-%d-%d", w, i), Type: "NIC", Dep: fmt.Sprintf("nic-%d-%d", w, i)},
				}})
				if err != nil {
					errs <- fmt.Errorf("ingest %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wait := func(id string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		end, err := s.WaitDone(ctx, id, 30*time.Second)
		if err != nil {
			return err
		}
		if end.State != StateDone {
			return fmt.Errorf("job %s finished %s (%s)", id, end.State, end.Error)
		}
		return nil
	}
	for w := 0; w < auditors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				st, err := s.Submit(deltaAuditRequest(fmt.Sprintf("audit-%d-%d", w, i)))
				if err == nil {
					err = wait(st.ID)
				}
				if err != nil {
					errs <- fmt.Errorf("audit %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < recommenders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				st, err := s.Recommend(&RecommendRequest{
					Nodes: []string{"s1", "s2", "s3", "s4"}, Replicas: 2, Strategy: "exact",
				})
				if err == nil {
					err = wait(st.ID)
				}
				if err != nil {
					errs <- fmt.Errorf("recommend %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := s.Stats()
	if want := int64(ingesters*rounds + 16); stats.IngestedRecords != want {
		t.Fatalf("ingested %d records, want %d", stats.IngestedRecords, want)
	}
	if stats.Failed != 0 || stats.Rejected != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}
