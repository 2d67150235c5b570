package auditd

import (
	"errors"
	"fmt"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/watch"
)

// IngestRequest is the body of POST /v1/depdb: dependency records observed
// about the fleet, to fold into the server's database.
type IngestRequest struct {
	Records []RecordWire `json:"records"`
	// Replicated marks an ingest pushed by a cluster peer's replication
	// rather than originated by a client: it bypasses the admission rate
	// limit (the originating node already admitted it) and is not replicated
	// onward. Set by the HTTP layer from the replication header, which it
	// honours only from a peer; never by clients, and excluded from JSON.
	Replicated bool `json:"-"`
}

// IngestResponse acknowledges an ingest with the database's new canonical
// fingerprint — the content-address component audits and recommendations
// against the server database will carry, so a client can tell exactly
// which data a later cached result was computed from.
type IngestResponse struct {
	// Added is the number of records this request carried, all accepted.
	Added int `json:"added"`
	// Total is the database's live record count after the ingest. A record
	// that supersedes another, or re-observes one, does not raise it.
	Total int `json:"total"`
	// Fingerprint is the canonical content hash of the database snapshot
	// registered by this ingest. Concurrent ingests may commit as one group
	// (see the committer below); they then share the group's post-commit
	// fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Durable reports whether the batch was persisted before being
	// acknowledged. False on a memory-only service, and on a durable one
	// while it serves degraded: the records are live but will not survive a
	// restart until the store recovers and a later ingest rebuilds the chain.
	Durable bool `json:"durable"`
}

// ingestWaiter is one admitted ingest parked on the committer: its records,
// and the response filled in when the group it joined commits.
type ingestWaiter struct {
	records []deps.Record
	// wire keeps the records' wire form for Cluster.Replicate; replica
	// marks a peer-replicated ingest that must not be replicated onward.
	wire    []RecordWire
	replica bool
	done    chan struct{} // closed once resp/err are set
	resp    IngestResponse
	err     error
}

// Ingest validates dependency records and folds them into the server's
// database, registering a fresh snapshot if they change its state. All
// records are stored or none. Jobs submitted earlier keep auditing the
// snapshot they resolved at submission time; jobs submitted after see the
// new state (and a new cache-key fingerprint). Ingest is idempotent: records
// that say what the database already says — a retried batch, a route
// re-observed in a new capture window — are acknowledged with the unchanged
// fingerprint and wake nobody.
//
// Durability is group-committed: admitted batches are handed to a single
// committer goroutine that folds every batch currently waiting into ONE
// snapshot-chain segment and ONE pointer update — two fsyncs per group
// instead of two per request — before any of them is acknowledged. A lone
// ingest on an idle daemon forms a group of one and behaves exactly as
// before; under a churn storm the fsync cost amortizes across the group,
// which is what lets a single-disk daemon absorb ~10k ingests/sec. An
// acknowledged ingest still survives a hard kill, and the request still
// costs O(batch) work no matter how large the database has grown.
//
// Admission is rate-limited when Config.IngestRate is set: a batch that
// outruns the token bucket is rejected with 429 and a Retry-After quoting
// when the bucket will have refilled, which the Client's backoff honors.
func (s *Server) Ingest(req *IngestRequest) (IngestResponse, error) {
	if len(req.Records) == 0 {
		return IngestResponse{}, &statusErr{code: 400, err: errors.New("ingest has no records")}
	}
	records, err := recordsFromWire(req.Records)
	if err != nil {
		return IngestResponse{}, err
	}

	if !req.Replicated {
		// Replicated ingests bypass admission: the originating node already
		// charged its own rate limit, and dropping a replica here would let
		// peer fingerprints diverge under load.
		if ok, retryAfter := s.ingestLimit.take(float64(len(records))); !ok {
			s.m.IngestThrottled.Add(1)
			return IngestResponse{}, &statusErr{
				code:       429,
				retryAfter: retryAfter,
				err:        fmt.Errorf("ingest rate limit exceeded, retry in %v (no records ingested)", retryAfter),
			}
		}
	}

	// The closed check and the in-flight count share one critical section:
	// after Shutdown flips closed, no new waiter can slip past the
	// ingestWG.Wait that precedes closing the channel.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return IngestResponse{}, &statusErr{code: 503, err: errors.New("service is shutting down")}
	}
	s.ingestWG.Add(1)
	s.mu.Unlock()

	w := &ingestWaiter{records: records, wire: req.Records, replica: req.Replicated, done: make(chan struct{})}
	s.ingestCh <- w
	s.ingestWG.Done()
	<-w.done
	return w.resp, w.err
}

// maxIngestGroup caps how many waiters one commit group folds together,
// bounding both the segment size and the latency of the first waiter.
const maxIngestGroup = 1024

// ingestCommitter is the single goroutine that owns ingest commits. It
// blocks for the next admitted batch, greedily drains everything else
// already waiting, and commits the lot as one group. It exits when Shutdown
// closes the channel — after committing whatever was already admitted.
func (s *Server) ingestCommitter() {
	defer s.wg.Done()
	for {
		w, ok := <-s.ingestCh
		if !ok {
			return
		}
		group := []*ingestWaiter{w}
		open := true
	drain:
		for len(group) < maxIngestGroup {
			select {
			case w2, ok2 := <-s.ingestCh:
				if !ok2 {
					open = false
					break drain
				}
				group = append(group, w2)
			default:
				break drain
			}
		}
		s.commitGroup(group)
		if !open {
			return
		}
	}
}

// commitGroup makes one group of admitted batches live: persisted (one
// segment + one pointer flip), committed to the in-memory database, watch
// subscriptions notified and peers sent the records that changed its state,
// and every waiter answered. On a persist failure the memory database is
// untouched and every waiter gets 503 — each client can safely retry, exactly
// as with per-request commits.
func (s *Server) commitGroup(group []*ingestWaiter) {
	commitStart := time.Now()
	n := 0
	for _, w := range group {
		n += len(w.records)
	}
	records := make([]deps.Record, 0, n)
	for _, w := range group {
		records = append(records, w.records...)
	}
	fail := func(code int, err error) {
		for _, w := range group {
			w.err = &statusErr{code: code, err: err}
			close(w.done)
		}
	}
	// Stage the group once: its canonical lines and digests serve the
	// persisted segment, the fingerprint preview and the in-memory commit.
	batch, err := depdb.NewBatch(records...)
	if err != nil {
		fail(500, err) // unreachable after the per-record validation in Ingest
		return
	}

	s.mu.Lock()
	if s.closed && s.db == nil {
		// Shutdown raced the admission of the very first ingest; refuse
		// rather than create a database nobody will serve.
		s.mu.Unlock()
		fail(503, errors.New("service is shutting down"))
		return
	}
	if s.db == nil {
		s.db = depdb.New()
	}
	db := s.db
	s.mu.Unlock()

	// ingestMu serializes the commit with its segment persistence (snapMeta
	// is guarded by it). PutBatch itself is atomic and safe against
	// concurrent snapshot readers; the job-table lock is not held
	// across it.
	//
	// On a durable service, persist the group BEFORE committing to the live
	// database: a failed disk write then leaves the memory DB untouched, and
	// the memory DB never holds what a restart would lose. Only the group
	// (and, the first time, the pre-existing records) is written — never a
	// copy of the whole database per request. While the breaker is open the
	// group is committed to memory only and the chain is marked stale
	// (snapDirty), so the next durable ingest rebuilds it in full.
	s.ingestMu.Lock()
	durable := false
	if s.store != nil {
		if s.breaker.allow() {
			if err := s.persistIngestLocked(db, batch); err != nil {
				s.storeFailure(fmt.Sprintf("persisting ingest of %d records", len(records)), err)
				s.ingestMu.Unlock()
				fail(503, fmt.Errorf("snapshot not persisted, no records ingested (safe to retry): %w", err))
				return
			}
			s.storeOK()
			durable = true
		} else {
			s.m.StoreSkippedWrites.Add(1)
		}
	}
	before := db.Snapshot()
	changed := db.PutBatch(batch)
	snap := db.Snapshot()
	// The chain on disk goes stale when it missed this group, and is worth
	// replacing when the database just started a fresh log: the superseded
	// records it dropped are most of what the chain would replay.
	if s.store != nil && (!durable && len(changed) > 0 || !snap.Extends(before)) {
		s.snapDirty = true
	}
	s.m.IngestedRecords.Add(int64(len(records)))
	s.m.IngestGroups.Add(1)
	s.ingestMu.Unlock()

	// Only the records that changed the database's state go any further: an
	// exact re-observation owes no re-audit and tells a peer nothing.
	if len(changed) > 0 {
		// Mark watch subscriptions dirty BEFORE acknowledging any waiter: by
		// the time a pusher's ingest returns, the re-audit it owes is
		// already owed.
		touches := make([]watch.Touch, len(changed))
		for j, i := range changed {
			touches[j] = watch.Touch{Subject: records[i].Subject(), Kind: int(records[i].Kind)}
		}
		s.watchHub.Notify(touches)

		// Replicate locally originated records to cluster peers BEFORE
		// acknowledging: when an ingest through this node returns, the
		// fleet's fingerprints have converged (the cluster retries/marks peers
		// internally). Peer-replicated records are never pushed onward —
		// replication is a star from the originating node, so there is no
		// echo.
		if c := s.cfg.Cluster; c != nil {
			if originated := originatedWire(group, changed); len(originated) > 0 {
				c.Replicate(originated)
			}
		}
	}

	// Observed before the waiters are released: an acknowledged ingest is
	// already in the histogram when its caller reads /metrics.
	s.m.IngestCommit.Observe(time.Since(commitStart))
	for _, w := range group {
		w.resp = IngestResponse{
			Added:       len(w.records),
			Total:       snap.Len(),
			Fingerprint: snap.Fingerprint(),
			Durable:     durable,
		}
		close(w.done)
	}
}

// originatedWire returns the wire form of the group's records at the given
// indices (ascending, into the group's batches laid end to end), leaving out
// those a peer replicated here.
func originatedWire(group []*ingestWaiter, indices []int) []RecordWire {
	var out []RecordWire
	start := 0 // index of w's first record
	for _, w := range group {
		end := start + len(w.records)
		for ; len(indices) > 0 && indices[0] < end; indices = indices[1:] {
			if !w.replica {
				out = append(out, w.wire[indices[0]-start])
			}
		}
		start = end
	}
	return out
}
