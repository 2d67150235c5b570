package auditd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
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
// The dependency database persists as a *snapshot chain* of generations.
// depdb/seg/<gen>/<i> holds the i-th batch of records of a generation as
// depdb frames it (Batch.Segment: each record's canonical line, the bytes
// its fingerprint digest was taken over); this package stores the bytes and
// never encodes a record itself. A generation starts with a base segment of
// every live record, and only then is depdb/current written: a snapMeta
// naming the generation, its base and the fingerprint the base replays to.
// Each later ingest commit appends one segment — O(batch) bytes, one store
// append, one fsync — and leaves the pointer alone. RestoreDB replays the
// segments the pointer names, checks its fingerprint, then replays the
// tail — every consecutive <gen>/<i> after them — in order (replay reduces
// as ingest did, so it lands on the same state), and consolidates the chain
// back to a single segment of the live records, so chains stay short across
// restarts. A commit's fsync finishes before the next commit writes, so only
// the newest segment can be torn by a crash; store recovery drops it, and
// every acknowledged ingest still replays. A gap in the tail — a record the
// store quarantined mid-log — fails the boot. A generation's base is durable
// before the pointer names it, so a crash while one starts leaves the
// previous generation in place.
const (
	// currentSnapshotKey stores the snapMeta of the generation a restarted
	// daemon should replay.
	currentSnapshotKey = "depdb/current"
	// segmentKeyPrefix + "<gen>/<i>" stores one ingested batch.
	segmentKeyPrefix = "depdb/seg/"
	// legacySnapshotPrefix is the pre-chain layout: one whole-database
	// snapshot under its fingerprint, named by a raw-string current pointer.
	// RestoreDB migrates it forward.
	legacySnapshotPrefix = "depdb/"
	// lineSegments is the snapMeta.Format of a chain of depdb segments with
	// a tail. A binary that predates the tail reads the format as foreign
	// and refuses to boot, rather than replaying the pointer's segments
	// alone and losing the tail's acknowledged ingests.
	lineSegments = "lines+tail"
	// namedLineSegments is the format of a chain of depdb segments whose
	// pointer was rewritten after every segment, written before the tail
	// existed. It replays like lineSegments and is rewritten at boot. A
	// chain in neither format, like the pre-chain layout, holds Table 1 XML.
	namedLineSegments = "lines"
)

// snapMeta is the JSON value of currentSnapshotKey: which generation of the
// snapshot chain is live, how many segments the pointer names and in which
// form, and the canonical fingerprint replaying them must reproduce — under
// the fingerprint algorithm of the stated version. A meta written before the
// field existed reads as version 0 and holds a multiset (v2) fingerprint.
//
// The Server keeps the same struct for the chain as it stands, tail
// included: Segments counts every segment of the generation and Fingerprint
// is the state the last of them leads to.
type snapMeta struct {
	Fingerprint string `json:"fingerprint"`
	FPVersion   int    `json:"fp_version,omitempty"`
	Format      string `json:"format,omitempty"`
	Gen         int    `json:"gen"`
	Segments    int    `json:"segments"`
}

func segmentKey(gen, i int) string {
	return fmt.Sprintf("%s%d/%d", segmentKeyPrefix, gen, i)
}

// readPointer reads the current pointer: the chain's meta and the keys of
// the segments it names, in replay order. A store with no pointer yields no
// keys. A pointer that is no snapMeta is the pre-chain layout — a raw
// fingerprint, of an older algorithm, naming one whole-database XML snapshot
// under depdb/<fp> — and reads as a one-segment XML chain of that key.
func readPointer(st *store.Store) (snapMeta, []string, error) {
	blob, _, ok, err := st.Get(currentSnapshotKey)
	if err != nil {
		return snapMeta{}, nil, fmt.Errorf("auditd: reading current snapshot pointer: %w", err)
	}
	if !ok {
		return snapMeta{}, nil, nil
	}
	var meta snapMeta
	if json.Unmarshal(blob, &meta) != nil || meta.Segments <= 0 {
		if fp := strings.TrimSpace(string(blob)); fp != "" {
			return snapMeta{Segments: 1}, []string{legacySnapshotPrefix + fp}, nil
		}
		return snapMeta{}, nil, nil
	}
	keys := make([]string, meta.Segments)
	for i := range keys {
		keys[i] = segmentKey(meta.Gen, i)
	}
	return meta, keys, nil
}

// loadChain replays the persisted chain into db and returns the pointer's
// meta and every segment key in replay order: the segments the pointer
// names, then — in a chain of lineSegments — its tail, every consecutive
// <gen>/<i> after them. Once the pointer's own segments are in, the state
// must reproduce the pointer's fingerprint (unless that was taken under
// another fingerprint algorithm). Nothing records where the tail ends, so
// a segment of the generation stored after the first missing one is a hole
// — a record the store quarantined as corrupt — and fails the load: the
// acknowledged ingests after the hole must not be skipped, nor swept.
func loadChain(st *store.Store, db *depdb.DB) (snapMeta, []string, error) {
	meta, keys, err := readPointer(st)
	if err != nil || len(keys) == 0 {
		return meta, nil, err
	}
	for i := 0; i < meta.Segments || meta.Format == lineSegments; i++ {
		named := i < meta.Segments
		key := segmentKey(meta.Gen, i)
		if named {
			key = keys[i]
		}
		seg, _, ok, err := st.Get(key)
		if err != nil {
			return meta, nil, fmt.Errorf("auditd: reading snapshot segment %s: %w", key, err)
		}
		if !ok && named {
			return meta, nil, fmt.Errorf("auditd: store names a %d-segment chain but segment %s is missing", meta.Segments, key)
		}
		if !ok {
			if later := segmentAfter(st, meta.Gen, i); later != "" {
				return meta, nil, fmt.Errorf("auditd: snapshot chain's segment %s is missing but %s follows it", key, later)
			}
			break // the end of the tail
		}
		if err := replaySegment(db, meta.Format, seg); err != nil {
			return meta, nil, fmt.Errorf("auditd: replaying snapshot segment %s: %w", key, err)
		}
		if i == meta.Segments-1 && meta.FPVersion == depdb.FingerprintVersion && db.Fingerprint() != meta.Fingerprint {
			return meta, nil, fmt.Errorf("auditd: snapshot chain stored as %s replays to fingerprint %s", meta.Fingerprint, db.Fingerprint())
		}
		if !named {
			keys = append(keys, key)
		}
	}
	return meta, keys, nil
}

// segmentAfter returns the key of a stored segment of generation gen with an
// index above i, or "" if there is none.
func segmentAfter(st *store.Store, gen, i int) string {
	prefix := fmt.Sprintf("%s%d/", segmentKeyPrefix, gen)
	for _, e := range st.Entries() {
		if rest, ok := strings.CutPrefix(e.Key, prefix); ok {
			if j, err := strconv.Atoi(rest); err == nil && j > i {
				return e.Key
			}
		}
	}
	return ""
}

// readSnapMeta loads the persisted chain as the next ingest should extend
// it. A missing or legacy-format pointer yields the zero meta (Segments == 0
// ⇒ nothing persisted yet, so the next ingest starts a fresh generation with
// a full base segment), and so does a chain under another fingerprint
// algorithm, in another form, or with a tail, that RestoreDB was not given
// to rewrite: nothing may be appended to it.
func readSnapMeta(st *store.Store) snapMeta {
	meta, keys, err := readPointer(st)
	if err != nil || len(keys) == 0 {
		return snapMeta{}
	}
	if meta.FPVersion != depdb.FingerprintVersion || meta.Format != lineSegments {
		return snapMeta{Gen: meta.Gen}
	}
	if _, _, tail, err := st.Get(segmentKey(meta.Gen, meta.Segments)); err != nil || tail {
		return snapMeta{Gen: meta.Gen}
	}
	return meta
}

// RestoreDB rebuilds the dependency database a crashed or restarted daemon
// was serving by replaying the persisted snapshot chain, loaded into a fresh
// mutable database so later ingests keep working. It returns nil (and no
// error) when the store holds no snapshot. The restored database reproduces
// the fingerprint of the last acknowledged ingest, so cached results
// computed against it stay addressable. A chain longer than one segment is
// consolidated back to a single segment while the daemon is still offline —
// the one moment O(database) persistence work is acceptable — and stale
// segments are swept. An older data directory is rewritten the same way,
// once: a chain written under an older fingerprint algorithm is re-keyed
// instead of verified (its records replay to the same current state, which
// is re-addressed under today's fingerprint, and results stored under the
// old address are simply never asked for again), and a chain of Table 1 XML
// — the pre-chain layout included — is rewritten as depdb segments.
func RestoreDB(st *store.Store) (*depdb.DB, error) {
	db := depdb.New()
	meta, keys, err := loadChain(st, db)
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, nil
	}
	live := meta
	if len(keys) > 1 || meta.FPVersion != depdb.FingerprintVersion || meta.Format != lineSegments {
		if live, _, err = startGeneration(st, db.Fingerprint(), meta.Gen+1, db.Segment()); err != nil {
			return nil, fmt.Errorf("auditd: consolidating snapshot chain: %w", err)
		}
		for _, key := range keys {
			st.Delete(key) // best-effort; swept on next boot
		}
	}
	sweepStaleSegments(st, live)
	return db, nil
}

// replaySegment puts one stored segment into db, all of it or none. A chain
// written before segments were depdb's own form holds Table 1 XML; this is
// the one place the daemon still reads it.
func replaySegment(db *depdb.DB, format string, seg []byte) error {
	if format == lineSegments || format == namedLineSegments {
		return db.PutSegment(seg)
	}
	records, err := deps.DecodeXML(bytes.NewReader(seg))
	if err != nil {
		return err
	}
	return db.Put(records...)
}

// startGeneration persists base — every live record — as segment 0 of
// generation gen, then points depdb/current at it, returning the new chain's
// meta and any result keys the store evicted to stay in budget (none at boot
// time, when only RestoreDB writes). fp is the state base replays to.
func startGeneration(st *store.Store, fp string, gen int, base []byte) (snapMeta, []string, error) {
	meta := snapMeta{Fingerprint: fp, FPVersion: depdb.FingerprintVersion, Format: lineSegments, Gen: gen, Segments: 1}
	evicted, err := st.Put(segmentKey(gen, 0), store.KindSnapshot, base)
	if err != nil {
		return meta, evicted, err
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return meta, evicted, err
	}
	ev2, err := st.Put(currentSnapshotKey, store.KindMeta, blob)
	return meta, append(evicted, ev2...), err
}

// sweepStaleSegments deletes every snapshot segment outside the live chain,
// which is a single segment after a boot: residue of crashes between a
// consolidation's writes, and superseded generations. The caller passes
// the chain meta it just replayed (never re-read here: a transient read
// failure must not be mistaken for "no chain", which would delete the live
// generation and leave the store unbootable). With no live chain there is
// nothing to distinguish stale from, so nothing is swept.
func sweepStaleSegments(st *store.Store, live snapMeta) {
	if live.Segments <= 0 {
		return
	}
	for _, e := range st.Entries() {
		if strings.HasPrefix(e.Key, segmentKeyPrefix) && e.Key != segmentKey(live.Gen, 0) {
			st.Delete(e.Key)
		}
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

// persistIngestLocked makes one ingest group durable before it is committed
// to the live database. The steady-state cost is O(batch) and one store
// append: the group is appended as the next segment of the chain's tail.
// Only the start of a generation — the first durable write of a database
// (e.g. a -deps preload about to take its first ingest), the first after
// degraded serving, the first after the database started a fresh log — pays
// O(database) for the base segment and a second append for the pointer; a
// group of nothing but re-observations — a retried batch — costs nothing:
// the chain already replays to the state it leads to. Crash ordering: the
// segment is durable before the ingest is acknowledged, and a base before
// the pointer names it, so every acknowledged ingest replays and every crash
// leaves a consistent chain. A segment whose write failed is overwritten by
// the next commit; if none follows, it may replay after a restart, which
// only repeats what the refused ingest said. Caller holds s.ingestMu.
func (s *Server) persistIngestLocked(db *depdb.DB, staged *depdb.Batch) error {
	newFP := db.FingerprintWith(staged)
	meta := s.snapMeta
	var evicted []string
	var err error
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
		meta, evicted, err = startGeneration(s.store, newFP, meta.Gen+1, append(db.Segment(), staged.Segment()...))
	default:
		evicted, err = s.store.Put(segmentKey(meta.Gen, meta.Segments), store.KindSnapshot, staged.Segment())
		meta.Fingerprint = newFP
		meta.Segments++
	}
	if err != nil {
		return err
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
