package auditd

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"indaas/internal/deps"
)

// TestTokenBucket covers the bucket's arithmetic on a fake clock: refill,
// deficit quoting, the oversized-batch clamp, and the unlimited nil bucket.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }

	if b := newTokenBucket(0, 10, clock); b != nil {
		t.Fatal("rate 0 must mean unlimited (nil bucket)")
	}
	var nb *tokenBucket
	if ok, _ := nb.take(1e9); !ok {
		t.Fatal("nil bucket refused a take")
	}

	b := newTokenBucket(10, 5, clock)
	if ok, _ := b.take(5); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, ra := b.take(2)
	if ok || ra != 200*time.Millisecond {
		t.Fatalf("empty bucket take(2) = %v, %v; want refusal quoting 200ms", ok, ra)
	}
	now = now.Add(200 * time.Millisecond)
	if ok, _ := b.take(2); !ok {
		t.Fatal("bucket did not refill at rate")
	}
	// A batch larger than the whole bucket quotes the full refill, not the
	// (unpayable) deficit — the client's backoff still terminates.
	ok, ra = b.take(500)
	if ok || ra > 500*time.Millisecond || ra <= 0 {
		t.Fatalf("oversized take = %v, %v; want refusal within one bucket refill", ok, ra)
	}
	// Refill never overshoots the burst.
	now = now.Add(time.Hour)
	if ok, _ := b.take(5); !ok {
		t.Fatal("bucket lost its burst capacity")
	}
	if ok, _ := b.take(1); ok {
		t.Fatal("bucket held more than its burst after a long idle")
	}
	// An oversized batch is admitted once the bucket is full — it borrows,
	// so a patient client is never starved — and the debt throttles what
	// follows until the refill repays it.
	now = now.Add(time.Hour)
	if ok, _ := b.take(20); !ok {
		t.Fatal("full bucket refused an oversized batch outright")
	}
	ok, ra = b.take(1)
	if ok || ra != 1600*time.Millisecond {
		t.Fatalf("take(1) under debt = %v, %v; want refusal quoting the 16-token deficit", ok, ra)
	}
	now = now.Add(1600 * time.Millisecond)
	if ok, _ := b.take(1); !ok {
		t.Fatal("debt never repaid")
	}
}

// nicRecord is server i's NIC: distinct i, distinct live records.
func nicRecord(i int) RecordWire {
	return WireRecords([]deps.Record{deps.NewHardware(fmt.Sprintf("s%d", i+1), "NIC", "x520")})[0]
}

// TestIngestRateLimit429: a batch that outruns the bucket is refused whole
// with 429 and a Retry-After quoting the deficit's refill time.
func TestIngestRateLimit429(t *testing.T) {
	s := New(Config{Workers: 1, IngestRate: 1, IngestBurst: 4})
	defer shutdown(t, s)

	batch := []RecordWire{nicRecord(0), nicRecord(1), nicRecord(2), nicRecord(3)}
	if _, err := s.Ingest(&IngestRequest{Records: batch}); err != nil {
		t.Fatalf("ingest within burst: %v", err)
	}
	_, err := s.Ingest(&IngestRequest{Records: batch})
	if httpStatus(err) != 429 {
		t.Fatalf("ingest past burst = %v, want 429", err)
	}
	var se *statusErr
	if !errors.As(err, &se) || se.retryAfter <= 0 || se.retryAfter > 5*time.Second {
		t.Fatalf("throttle carried retryAfter %v, want the ~4s deficit", se.retryAfter)
	}
	st := s.Stats()
	if st.IngestThrottled != 1 || st.IngestedRecords != 4 {
		t.Fatalf("after throttle: throttled=%d ingested=%d", st.IngestThrottled, st.IngestedRecords)
	}
}

// TestIngestThrottleSelfPaces is the fleet contract over HTTP: the 429
// carries a Retry-After header, a retrying client honors it, and the
// once-throttled ingest lands on its own.
func TestIngestThrottleSelfPaces(t *testing.T) {
	s := New(Config{Workers: 1, IngestRate: 20, IngestBurst: 4})
	defer gracefulShutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()
	first := []RecordWire{nicRecord(0), nicRecord(1), nicRecord(2), nicRecord(3)}
	batch := []RecordWire{nicRecord(4), nicRecord(5), nicRecord(6), nicRecord(7)}

	noRetry := NewClient(ts.URL, ts.Client())
	noRetry.Retry = RetryPolicy{MaxAttempts: 1}
	admitted, err := noRetry.Ingest(ctx, first)
	if err != nil {
		t.Fatalf("ingest within burst: %v", err)
	}
	_, err = noRetry.Ingest(ctx, batch)
	if httpStatus(err) != 429 {
		t.Fatalf("ingest past burst = %v, want 429", err)
	}
	// The header's floor is one whole second even for a 20ms deficit.
	var se *statusErr
	if !errors.As(err, &se) || se.retryAfter != time.Second {
		t.Fatalf("429 carried retryAfter %v, want the 1s header", se)
	}

	c := NewClient(ts.URL, ts.Client())
	c.Retry = RetryPolicy{MaxAttempts: 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	start := time.Now()
	resp, err := c.Ingest(ctx, batch)
	if err != nil {
		t.Fatalf("self-pacing ingest: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retry fired after %v, want the server's Retry-After honored", elapsed)
	}
	// The refused attempt left nothing behind (all or nothing): the first
	// ingest saw its own four records, and the retry that got through added
	// exactly its four.
	if admitted.Total != 4 || resp.Total != 8 || resp.Fingerprint == admitted.Fingerprint {
		t.Fatalf("database went %d → %d records (%s → %s), want the two admitted batches: 4 → 8",
			admitted.Total, resp.Total, admitted.Fingerprint, resp.Fingerprint)
	}
	if st := s.Stats(); st.IngestThrottled < 2 {
		t.Fatalf("IngestThrottled = %d, want both refusals counted", st.IngestThrottled)
	}
}
