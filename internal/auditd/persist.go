package auditd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/store"
)

// Store key namespaces. Result entries use the raw content address (a
// SHA-256 hex string, which never contains '/'); DepDB entries live under
// the depdb/ prefix so the two spaces cannot collide.
//
// The dependency database persists as a *snapshot chain*: depdb/current
// holds a snapMeta naming a generation and its segment count, and
// depdb/seg/<gen>/<i> holds the i-th batch of records (Table 1 XML). Each
// ingest appends one segment — O(batch) bytes — instead of rewriting the
// whole database; RestoreDB replays the chain in order — replay reduces as
// ingest did, so it lands on the same state — and consolidates it back to a
// single segment of the live records, so chains stay short across restarts
// and a crash between writes is harmless (the current pointer flips only
// after the segment it names is durable).
const (
	// currentSnapshotKey stores the snapMeta of the chain a restarted
	// daemon should replay.
	currentSnapshotKey = "depdb/current"
	// segmentKeyPrefix + "<gen>/<i>" stores one ingested batch.
	segmentKeyPrefix = "depdb/seg/"
	// legacySnapshotPrefix is the pre-chain layout: one whole-database
	// snapshot under its fingerprint, named by a raw-string current pointer.
	// RestoreDB migrates it forward.
	legacySnapshotPrefix = "depdb/"
)

// snapMeta is the JSON value of currentSnapshotKey: which generation of the
// snapshot chain is live, how many segments it has, and the canonical
// fingerprint replaying them must reproduce — under the fingerprint
// algorithm of the stated version. A meta written before the field existed
// reads as version 0 and holds a multiset (v2) fingerprint.
type snapMeta struct {
	Fingerprint string `json:"fingerprint"`
	FPVersion   int    `json:"fp_version,omitempty"`
	Gen         int    `json:"gen"`
	Segments    int    `json:"segments"`
}

// newSnapMeta stamps a chain's meta with the running fingerprint algorithm.
func newSnapMeta(fp string, gen, segments int) snapMeta {
	return snapMeta{Fingerprint: fp, FPVersion: depdb.FingerprintVersion, Gen: gen, Segments: segments}
}

func segmentKey(gen, i int) string {
	return fmt.Sprintf("%s%d/%d", segmentKeyPrefix, gen, i)
}

// readSnapMeta loads the persisted chain state; a missing or legacy-format
// pointer yields the zero meta (Segments == 0 ⇒ nothing persisted yet, so
// the next ingest starts a fresh generation with a full base segment), and
// so does a chain addressed under another fingerprint algorithm that
// RestoreDB was not given to re-key: nothing may be appended to it.
func readSnapMeta(st *store.Store) snapMeta {
	var meta snapMeta
	blob, _, ok, err := st.Get(currentSnapshotKey)
	if err != nil || !ok {
		return snapMeta{}
	}
	if json.Unmarshal(blob, &meta) != nil || meta.Segments <= 0 {
		return snapMeta{}
	}
	if meta.FPVersion != depdb.FingerprintVersion {
		return snapMeta{Gen: meta.Gen}
	}
	return meta
}

// RestoreDB rebuilds the dependency database a crashed or restarted daemon
// was serving by replaying the persisted snapshot chain, loaded into a fresh
// mutable database so later ingests keep working. It returns nil (and no
// error) when the store holds no snapshot. The restored database reproduces
// the pre-restart canonical fingerprint, so cached results computed against
// it stay addressable. A chain longer than one segment is consolidated back
// to a single segment while the daemon is still offline — the one moment
// O(database) persistence work is acceptable — and stale generations are
// swept. A chain written under an older fingerprint algorithm is re-keyed
// instead of verified: its records replay to the same current state, which
// is re-addressed under today's fingerprint and rewritten, and results
// stored under the old address are simply never asked for again.
func RestoreDB(st *store.Store) (*depdb.DB, error) {
	blob, _, ok, err := st.Get(currentSnapshotKey)
	if err != nil {
		return nil, fmt.Errorf("auditd: reading current snapshot pointer: %w", err)
	}
	if !ok {
		return nil, nil
	}
	var meta snapMeta
	if json.Unmarshal(blob, &meta) != nil || meta.Segments <= 0 {
		return restoreLegacyDB(st, strings.TrimSpace(string(blob)))
	}
	db := depdb.New()
	for i := 0; i < meta.Segments; i++ {
		seg, _, ok, err := st.Get(segmentKey(meta.Gen, i))
		if err != nil {
			return nil, fmt.Errorf("auditd: reading snapshot segment %d/%d: %w", meta.Gen, i, err)
		}
		if !ok {
			return nil, fmt.Errorf("auditd: store names a %d-segment chain but segment %d/%d is missing", meta.Segments, meta.Gen, i)
		}
		records, err := deps.DecodeXML(bytes.NewReader(seg))
		if err != nil {
			return nil, fmt.Errorf("auditd: decoding snapshot segment %d/%d: %w", meta.Gen, i, err)
		}
		if err := db.Put(records...); err != nil {
			return nil, fmt.Errorf("auditd: replaying snapshot segment %d/%d: %w", meta.Gen, i, err)
		}
	}
	rekey := meta.FPVersion != depdb.FingerprintVersion
	if got := db.Fingerprint(); rekey {
		meta.Fingerprint = got
	} else if got != meta.Fingerprint {
		return nil, fmt.Errorf("auditd: snapshot chain stored as %s replays to fingerprint %s", meta.Fingerprint, got)
	}
	live := meta
	if meta.Segments > 1 || rekey {
		next, err := consolidateChain(st, db, meta)
		if err != nil {
			return nil, err
		}
		live = next
	}
	sweepStaleSegments(st, live)
	return db, nil
}

// restoreLegacyDB migrates a pre-chain store: the current pointer held a raw
// fingerprint string and the whole database sat under depdb/<fp>. The
// fingerprint algorithm has changed since, so the entry is re-addressed
// under a fresh single-segment chain and the legacy keys are deleted.
func restoreLegacyDB(st *store.Store, legacyFP string) (*depdb.DB, error) {
	if legacyFP == "" {
		return nil, nil
	}
	blob, _, ok, err := st.Get(legacySnapshotPrefix + legacyFP)
	if err != nil {
		return nil, fmt.Errorf("auditd: reading legacy snapshot %s: %w", legacyFP, err)
	}
	if !ok {
		return nil, fmt.Errorf("auditd: store names current snapshot %s but holds no entry for it", legacyFP)
	}
	db, err := depdb.DecodeDB(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	meta := newSnapMeta(db.Fingerprint(), 1, 1)
	if _, err := writeChain(st, db.Records(), meta); err != nil {
		return nil, fmt.Errorf("auditd: migrating legacy snapshot: %w", err)
	}
	st.Delete(legacySnapshotPrefix + legacyFP) // best-effort; superseded
	return db, nil
}

// consolidateChain rewrites a multi-segment chain as one segment under the
// next generation and deletes the old generation's segments. The new
// generation is fully durable before the current pointer flips, so a crash
// at any point leaves a replayable chain.
func consolidateChain(st *store.Store, db *depdb.DB, meta snapMeta) (snapMeta, error) {
	next := newSnapMeta(meta.Fingerprint, meta.Gen+1, 1)
	if _, err := writeChain(st, db.Records(), next); err != nil {
		return meta, fmt.Errorf("auditd: consolidating snapshot chain: %w", err)
	}
	for i := 0; i < meta.Segments; i++ {
		st.Delete(segmentKey(meta.Gen, i)) // best-effort; swept on next boot
	}
	return next, nil
}

// writeChain persists records as a fresh single-segment chain and flips the
// current pointer to it, returning any result keys the store evicted to
// stay in budget (empty at boot time, when only RestoreDB calls write).
func writeChain(st *store.Store, records []deps.Record, meta snapMeta) ([]string, error) {
	var buf bytes.Buffer
	if err := deps.EncodeXML(&buf, records); err != nil {
		return nil, err
	}
	evicted, err := st.Put(segmentKey(meta.Gen, 0), store.KindSnapshot, buf.Bytes())
	if err != nil {
		return evicted, err
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return evicted, err
	}
	ev2, err := st.Put(currentSnapshotKey, store.KindMeta, blob)
	return append(evicted, ev2...), err
}

// sweepStaleSegments deletes snapshot segments of any generation other than
// the live one — residue of crashes between a consolidation's writes. The
// caller passes the chain meta it just replayed (never re-read here: a
// transient read failure must not be mistaken for "no chain", which would
// delete the live generation and leave the store unbootable). With no live
// chain there is nothing to distinguish stale from, so nothing is swept.
func sweepStaleSegments(st *store.Store, live snapMeta) {
	if live.Segments <= 0 {
		return
	}
	prefix := fmt.Sprintf("%s%d/", segmentKeyPrefix, live.Gen)
	for _, e := range st.Entries() {
		if !strings.HasPrefix(e.Key, segmentKeyPrefix) || strings.HasPrefix(e.Key, prefix) {
			continue
		}
		st.Delete(e.Key)
	}
}

// persistResult writes a completed computation through to the disk store,
// returning any keys the store evicted to stay within budget (mirrored into
// the memory LRU by the caller). Persist failures are logged once with the
// label (which job or delta adoption was being written) and feed the
// circuit breaker, but never fail the job: the result still lives in
// memory. While the breaker is open the write is skipped outright.
func (s *Server) persistResult(label, key string, res *EncodedResult) []string {
	if s.store == nil {
		return nil
	}
	if !s.breaker.allow() {
		s.m.StoreSkippedWrites.Add(1)
		return nil
	}
	evicted, err := s.store.Put(key, store.KindResult, res.envelope())
	if err != nil {
		s.storeFailure("persisting result of "+label, err)
	} else {
		s.storeOK()
	}
	return evicted
}

// persistIngestLocked makes one ingest batch durable before it is committed
// to the live database. The steady-state cost is O(batch): the batch is
// appended as one new chain segment and the current pointer advances. Only
// the very first durable write of a database (nothing persisted yet — e.g. a
// -deps preload about to take its first ingest) pays O(database) to lay down
// the base segment, and a group of nothing but re-observations — a retried
// batch — costs nothing: the chain already replays to the state it leads to.
// Crash ordering: the segment is durable before the pointer names it, and
// the pointer is durable before the ingest is acknowledged, so every
// acknowledged ingest replays and every crash leaves a consistent chain (an
// orphaned segment from an unacknowledged ingest is overwritten by the retry
// or swept at boot). Caller holds s.ingestMu.
func (s *Server) persistIngestLocked(db *depdb.DB, staged *depdb.Batch) error {
	newFP := db.FingerprintWith(staged)
	batch := staged.Records()
	meta := s.snapMeta
	var evicted []string
	switch {
	case meta.Segments > 0 && !s.snapDirty && newFP == meta.Fingerprint:
		return nil
	case meta.Segments == 0 || s.snapDirty:
		// First durable snapshot — or the persisted chain went stale while
		// degraded ingests were committed to memory only, or the database
		// compacted and the chain is mostly superseded history: the base
		// segment carries everything the live database holds plus the
		// batch. A fresh generation replaces the old chain; its segments
		// are swept at the next boot.
		meta = newSnapMeta(newFP, meta.Gen+1, 1)
		ev, err := writeChain(s.store, append(db.Records(), batch...), meta)
		evicted = append(evicted, ev...)
		if err != nil {
			return err
		}
	default:
		var buf bytes.Buffer
		if err := deps.EncodeXML(&buf, batch); err != nil {
			return err
		}
		ev, err := s.store.Put(segmentKey(meta.Gen, meta.Segments), store.KindSnapshot, buf.Bytes())
		evicted = append(evicted, ev...)
		if err != nil {
			return err
		}
		meta.Fingerprint = newFP
		meta.Segments++
		blob, err := json.Marshal(meta)
		if err != nil {
			return err
		}
		ev, err = s.store.Put(currentSnapshotKey, store.KindMeta, blob)
		evicted = append(evicted, ev...)
		if err != nil {
			return err
		}
	}
	s.snapMeta = meta
	s.snapDirty = false
	s.dropCached(evicted, "")
	return nil
}

// dropCached mirrors disk-store evictions into the in-memory LRU so the two
// tiers cannot disagree about what is retrievable. except (usually the key
// just written) is spared: even if the store could not retain it, the
// in-memory copy stays valid. The memory tier locks itself; s.mu is not
// needed.
func (s *Server) dropCached(keys []string, except string) {
	for _, key := range keys {
		if key == except {
			continue
		}
		s.cache.Remove(key)
		s.m.StoreEvictions.Add(1)
	}
}

// StoreGC applies the persistent store's size/age eviction policy now and
// mirrors any evictions into the in-memory cache — the same bookkeeping a
// Put-triggered eviction gets. A memory-only service no-ops. It returns how
// many entries were evicted.
func (s *Server) StoreGC() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	evicted, err := s.store.GC()
	if err != nil {
		s.m.StoreErrors.Add(1)
	}
	s.dropCached(evicted, "")
	return len(evicted), err
}

// StartStoreGC runs StoreGC every interval until the returned stop function
// is called, so an idle daemon still enforces -store-max-age: without the
// ticker, eviction only runs inside Put and a quiet store never ages
// anything out. Stop is idempotent; a memory-only service (or interval <= 0)
// gets a no-op.
func (s *Server) StartStoreGC(interval time.Duration) (stop func()) {
	if s.store == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.StoreGC() // a GC failure increments auditd_store_errors_total
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
