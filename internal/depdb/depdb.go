// Package depdb implements DepDB, the dependency information database of §3.
//
// Dependency acquisition modules store their adapted records here; the
// auditing agent queries it while building dependency graphs (§4.1.1
// Steps 2-6). The store is safe for concurrent use, indexes records by
// subject (the server a record is about) and kind, and can persist itself to
// the Table 1 XML format.
//
// The database IS its reduced state. Acquisition is continuous and
// re-observes the same dependencies indefinitely, so a record is not an
// event to be kept but a statement about one identity — a hardware slot of
// a machine, a program on a host, one route between two endpoints. A
// hardware or software record supersedes the previous record of its
// identity; a route already on file, or any record equal to the live one,
// is an exact re-observation and changes nothing: not the fingerprint, not
// the registered snapshot, not Len. Len, Records, Encode, every query and
// Diff speak of the live records only, in first-observation order of their
// identities. Redundant routes between the same endpoints are distinct
// routes and all live.
//
// Storage is an append-only log of the records that changed state, a
// per-subject position index over it, and a map from identity to the log
// position of its live record. Long-running readers — concurrent audit jobs
// in particular — should not hold the database's lock for the duration of a
// graph build: Snapshot returns a registered immutable view, a (log, length,
// fingerprint) mark that costs O(1) to take, and any number of snapshots of
// one log share its storage. Snapshot queries briefly read-lock the
// database per call (never across a graph build) and see only the frozen
// prefix. The log is one epoch of the database's life: when its superseded
// entries outnumber the live ones, the next commit starts a fresh log
// holding only the live records, so memory and query cost follow the size
// of the current state, not the uptime. A snapshot pins the log it was taken
// from and keeps answering from it.
//
// A snapshot carries a content Fingerprint, the canonical hash the audit
// service uses to content-address cached results. It commits to the reduced
// state and nothing else — same live records, same fingerprint, whatever
// order, repetition or compaction produced them — and is maintained
// incrementally: a homomorphic set hash over canonical record
// serializations from which a superseded record's digest is subtracted, so
// a commit costs O(batch), not O(database). Two snapshots can also be
// compared record-wise with Diff, the primitive delta audits are built on.
package depdb

import (
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"indaas/internal/deps"
)

// Reader is the read side of a dependency database: what graph builders
// need. Both *DB (live) and *Snapshot (frozen) implement it. Every method
// answers from the reduced state.
type Reader interface {
	// Query returns the live records for subject of the given kind, in
	// first-observation order of their identities.
	Query(subject string, kind deps.Kind) []deps.Record
	// QueryAll returns every live record about subject, grouped network,
	// hardware, software.
	QueryAll(subject string) []deps.Record
	// Networks returns the network state for subject: one record per
	// distinct route. Redundant routes between the same endpoints are
	// distinct routes and all survive.
	Networks(subject string) []deps.Network
	// HardwareOf returns the hardware state for subject: the latest record
	// per slot (machine, component type), so a replaced component shows
	// only its present model.
	HardwareOf(subject string) []deps.Hardware
	// SoftwareOf returns the software state for subject: the latest record
	// per program, so an upgrade shows only the new closure.
	SoftwareOf(subject string) []deps.Software
	// Subjects returns every subject with at least one record, sorted.
	Subjects() []string
	// Len returns the number of live records.
	Len() int
}

// recLog is one epoch of the database: the records that changed state since
// the log was started, in commit order, plus a per-subject, per-kind
// position index. Positions within a bucket are strictly increasing, which
// lets a snapshot see the prefix of any bucket by cutting at its length. A
// log only grows; compaction starts a new one and leaves this one to the
// snapshots that pin it.
type recLog struct {
	entries []entry
	// index[subject][kind] -> ascending positions into entries
	index map[string]map[deps.Kind][]int
}

// entry is one logged record and the position of the entry it superseded
// (-1 when it is the first observation of its identity in this log). An
// identity's entries all share a subject and kind, so a chain of prev links
// never leaves its index bucket.
type entry struct {
	rec  deps.Record
	prev int
}

func newLog(subjects int) *recLog {
	return &recLog{index: make(map[string]map[deps.Kind][]int, subjects)}
}

// append logs r as superseding the entry at prev and returns its position.
func (l *recLog) append(r deps.Record, prev int) int {
	pos := len(l.entries)
	l.entries = append(l.entries, entry{rec: r, prev: prev})
	subj := r.Subject()
	byKind := l.index[subj]
	if byKind == nil {
		byKind = make(map[deps.Kind][]int)
		l.index[subj] = byKind
	}
	byKind[r.Kind] = append(byKind[r.Kind], pos)
	return pos
}

// reduce folds n entries — those at positions, ascending, or the first n of
// the log when positions is nil — to their live records: each identity once,
// holding its latest record, in first-observation order. at[i] is where the
// i-th visited entry's identity sits in the result; it is nil when nothing
// was superseded and the result is the entries themselves.
func (l *recLog) reduce(positions []int, n int) (out []deps.Record, at []int) {
	out = make([]deps.Record, 0, n)
	for i := 0; i < n; i++ {
		p := i
		if positions != nil {
			p = positions[i]
		}
		e := &l.entries[p]
		if e.prev < 0 {
			if at != nil {
				at[i] = len(out)
			}
			out = append(out, e.rec)
			continue
		}
		if at == nil { // first supersession: every entry so far sits at its own rank
			at = make([]int, n)
			for j := 0; j < i; j++ {
				at[j] = j
			}
		}
		j := e.prev
		if positions != nil {
			j = sort.SearchInts(positions, e.prev)
		}
		at[i] = at[j]
		out[at[i]] = e.rec
	}
	return out, at
}

// query returns the live records for subject of the given kind among the
// first limit log entries.
func (l *recLog) query(subject string, kind deps.Kind, limit int) []deps.Record {
	positions := l.index[subject][kind]
	cut := sort.SearchInts(positions, limit)
	if cut == 0 {
		return nil
	}
	out, _ := l.reduce(positions[:cut], cut)
	return out
}

// records returns the live records among the first limit log entries.
func (l *recLog) records(limit int) []deps.Record {
	out, _ := l.reduce(nil, limit)
	return out
}

// subjects returns the subjects with at least one record among the first
// limit log entries, sorted.
func (l *recLog) subjects(limit int) []string {
	out := make([]string, 0, len(l.index))
	for s, byKind := range l.index {
		for _, positions := range byKind {
			if len(positions) > 0 && positions[0] < limit {
				out = append(out, s)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// digest is one record's contribution to the fingerprint: 2048 bits, four
// domain-separated SHA-512s over its canonical line, as little-endian limbs.
type digest [fpLimbs]uint64

const fpLimbs = 32

func digestOf(line string) (d digest) {
	var stack [160]byte
	buf := append(append(stack[:0], 0), line...)
	for block := 0; block < 4; block++ {
		buf[0] = byte(block)
		h := sha512.Sum512(buf)
		for i := 0; i < 8; i++ {
			d[block*8+i] = binary.LittleEndian.Uint64(h[i*8:])
		}
	}
	return d
}

// fpSum is the incrementally-maintained fingerprint state: a 2048-bit
// homomorphic set hash (the wrapping sum of the live records' digests,
// AdHash-style) plus the live-record count. Insertion order cannot matter
// because addition commutes, and a superseded record leaves no trace
// because wrapping subtraction is addition's exact inverse; a record costs
// four SHA-512s over its canonical line, O(1) regardless of database size.
// The state is 2048 bits — not one hash block — because additive hashes at
// small moduli fall to Wagner's generalized-birthday attack (AdHash wants a
// modulus well past 1600 bits for a comfortable margin); an ingest client
// must not be able to craft a batch whose digest sum collides and thereby
// alias a changed database to stale content-addressed results.
type fpSum struct {
	count uint64
	limbs digest // little-endian 2048-bit accumulator
}

// add folds one live record's digest into the sum.
func (s *fpSum) add(d *digest) {
	var carry uint64
	for i := range s.limbs {
		s.limbs[i], carry = bits.Add64(s.limbs[i], d[i], carry)
	}
	s.count++
}

// sub takes a superseded record's digest back out: add's inverse.
func (s *fpSum) sub(d *digest) {
	var borrow uint64
	for i := range s.limbs {
		s.limbs[i], borrow = bits.Sub64(s.limbs[i], d[i], borrow)
	}
	s.count--
}

// replace makes the record whose digest is d the live record under a key
// whose live record's digest was old; onFile says whether it had one. A
// route on file keeps no digest: nothing but the same route shares its key.
// It reports whether anything changed: an exact re-observation leaves the
// sum alone.
func (s *fpSum) replace(old *digest, onFile bool, d *digest) bool {
	if onFile {
		if old == nil || *old == *d {
			return false
		}
		s.sub(old)
	}
	s.add(d)
	return true
}

// fingerprint renders the canonical content hash of the accumulated set.
func (s *fpSum) fingerprint() string {
	var buf [len(fpDomain) + 8 + fpLimbs*8]byte
	copy(buf[:], fpDomain)
	binary.BigEndian.PutUint64(buf[len(fpDomain):], s.count)
	for i := 0; i < fpLimbs; i++ {
		binary.BigEndian.PutUint64(buf[len(fpDomain)+8+i*8:], s.limbs[i])
	}
	h := sha256.Sum256(buf[:])
	return hex.EncodeToString(h[:])
}

// fpDomain separates the fingerprint hash domain from raw record hashes. v3
// commits to the reduced state; v2 committed to the multiset of every
// observation ever made, so no v2 fingerprint names the same thing.
const fpDomain = "indaas/depdb/fingerprint/v3\n"

// FingerprintVersion is the generation of the fingerprint algorithm (the
// number in its hash domain). Whoever stores a fingerprint stores this
// beside it, and re-addresses what it stored when the two disagree.
const FingerprintVersion = 3

// deadPerLive is when a log is compacted: as soon as its superseded entries
// outnumber the live records by more than this factor.
const deadPerLive = 1

// DB is an in-memory dependency database with per-subject, per-kind indexes.
// The zero value is not usable; call New.
type DB struct {
	mu   sync.RWMutex
	log  *recLog
	live map[identity]liveRec
	// digests holds, for every hardware and software identity, the digest of
	// its live record: what an exact re-observation is recognized by and what
	// a superseding record takes back out of the sum, without rehashing.
	digests []digest
	dead    int // superseded entries in log
	sum     fpSum
	snap    *Snapshot // registered snapshot; nil after a state change

	deadPerLive int // the constant, except in tests
}

// liveRec locates the live record of a liveKey: its position in the current
// log and its slot in DB.digests (-1 for a route).
type liveRec struct {
	pos, digest int
}

// New returns an empty database.
func New() *DB {
	return &DB{log: newLog(0), live: make(map[identity]liveRec), deadPerLive: deadPerLive}
}

// Batch is a validated set of records staged for insertion: each record's
// live key and digest are built once, independent of the database the batch
// lands in. FingerprintWith previews the batch against current state and
// PutBatch commits it without serializing or hashing any of its records a
// second time.
type Batch struct {
	records []deps.Record
	staged  []staged // parallel to records
}

type staged struct {
	key    identity
	digest digest
}

// NewBatch validates records and hashes each one once. Either every record
// is valid or no batch is returned.
func NewBatch(records ...deps.Record) (*Batch, error) {
	b, err := stage(records)
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// stage validates records and builds their keys and digests.
func stage(records []deps.Record) (Batch, error) {
	b := Batch{records: records, staged: make([]staged, len(records))}
	for i, r := range records {
		if err := r.Validate(); err != nil {
			return Batch{}, fmt.Errorf("depdb: record %d: %w", i, err)
		}
		line := canonicalLine(r)
		b.staged[i] = staged{key: liveKey(r, line), digest: digestOf(line)}
	}
	return b, nil
}

// Records returns the batch's records in insertion order (not a copy).
func (b *Batch) Records() []deps.Record { return b.records }

// Put validates and stores records. Either all records are stored or none.
// Unless every record is an exact re-observation, the registered snapshot
// is invalidated; snapshots taken earlier keep serving their frozen view.
func (db *DB) Put(records ...deps.Record) error {
	b, err := stage(records)
	if err != nil {
		return err
	}
	db.PutBatch(&b)
	return nil
}

// liveKey names which live record r, whose canonical line is line, competes
// with: the one of its identity for hardware and software, which a new record
// supersedes, and for a route only the identical route, which it re-observes.
func liveKey(r deps.Record, line string) identity {
	if r.Kind == deps.KindNetwork {
		return identity{kind: r.Kind, a: line}
	}
	return identityOf(r)
}

// onFile returns the record live under key, if there is one, and its digest
// (nil for a route).
func (db *DB) onFile(key identity) (lr liveRec, old *digest, ok bool) {
	lr, ok = db.live[key]
	if ok && lr.digest >= 0 {
		old = &db.digests[lr.digest]
	}
	return lr, old, ok
}

// PutBatch stores a staged batch — Put without the validation and hashing
// NewBatch already did — and returns the indices, ascending, of the records
// that changed the database's state. Exact re-observations are not among
// them; when there are no others, nothing happened: the fingerprint, Len
// and the registered snapshot are what they were.
func (db *DB) PutBatch(b *Batch) (changed []int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, r := range b.records {
		st := &b.staged[i]
		lr, old, onFile := db.onFile(st.key)
		if !db.sum.replace(old, onFile, &st.digest) {
			continue
		}
		if changed == nil {
			changed = make([]int, 0, len(b.records)-i)
			db.log.entries = slices.Grow(db.log.entries, len(b.records)-i)
		}
		changed = append(changed, i)
		switch {
		case onFile:
			*old = st.digest
			lr.pos = db.log.append(r, lr.pos)
			db.dead++
		case r.Kind == deps.KindNetwork:
			lr = liveRec{pos: db.log.append(r, -1), digest: -1}
		default:
			lr = liveRec{pos: db.log.append(r, -1), digest: len(db.digests)}
			db.digests = append(db.digests, st.digest)
		}
		db.live[st.key] = lr
	}
	if changed == nil {
		return nil
	}
	db.snap = nil
	if db.dead > db.deadPerLive*len(db.live) {
		db.compact()
	}
	return changed
}

// compact starts a fresh log holding only the live records, in the
// first-observation order the old log gave their identities, so every query
// answers as before. Caller holds the write lock.
func (db *DB) compact() {
	old := db.log
	live, at := old.reduce(nil, len(old.entries))
	db.log = newLog(len(old.index))
	db.log.entries = make([]entry, 0, len(live))
	for _, r := range live {
		db.log.append(r, -1)
	}
	for key, lr := range db.live {
		lr.pos = at[lr.pos]
		db.live[key] = lr
	}
	db.dead = 0
}

// Snapshot returns the registered immutable view of the database's current
// contents. The snapshot is built at most once per state change: calls
// between two changes return the identical *Snapshot, so concurrent audit
// jobs share one frozen view (and one Fingerprint). Creating it is O(1) — the
// snapshot is a length mark over the current log, not a copy — and it stays
// valid, and unchanged, after later Puts.
func (db *DB) Snapshot() *Snapshot {
	db.mu.RLock()
	s := db.snap
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snap == nil {
		db.snap = &Snapshot{db: db, log: db.log, limit: len(db.log.entries), n: len(db.live), fp: db.sum.fingerprint()}
	}
	return db.snap
}

// Fingerprint returns the canonical content hash of the current records;
// shorthand for db.Snapshot().Fingerprint().
func (db *DB) Fingerprint() string {
	return db.Snapshot().Fingerprint()
}

// FingerprintWith returns the fingerprint the database would have after
// PutBatch(b), without modifying anything — the audit service uses it to
// persist an ingest's outcome before committing the ingest. It runs the
// reduction PutBatch would, over the digests the batch and the database
// already hold: O(batch) arithmetic, nothing hashed.
func (db *DB) FingerprintWith(b *Batch) string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	sum := db.sum
	var pending map[identity]*digest // live key -> digest of the batch record that will be live under it
	for i := range b.staged {
		st := &b.staged[i]
		old, onFile := pending[st.key]
		if !onFile {
			_, old, onFile = db.onFile(st.key)
		}
		if sum.replace(old, onFile, &st.digest) {
			if pending == nil {
				pending = make(map[identity]*digest, len(b.staged)-i)
			}
			pending[st.key] = &st.digest
		}
	}
	return sum.fingerprint()
}

// Len returns the number of live records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.live)
}

// Subjects returns every subject that has at least one record, sorted.
func (db *DB) Subjects() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log.subjects(len(db.log.entries))
}

// Query returns the live records for subject of the given kind; see Reader.
// The returned slice is a copy.
func (db *DB) Query(subject string, kind deps.Kind) []deps.Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log.query(subject, kind, len(db.log.entries))
}

// QueryAll returns every live record about subject, grouped network,
// hardware, software.
func (db *DB) QueryAll(subject string) []deps.Record {
	return queryAll(db, subject)
}

func queryAll(r Reader, subject string) []deps.Record {
	var out []deps.Record
	for _, k := range []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware} {
		out = append(out, r.Query(subject, k)...)
	}
	return out
}

// Records returns a copy of every live record, in first-observation order of
// their identities.
func (db *DB) Records() []deps.Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log.records(len(db.log.entries))
}

// Networks returns the network state for subject; see Reader.
func (db *DB) Networks(subject string) []deps.Network {
	return networks(db.Query(subject, deps.KindNetwork))
}

// HardwareOf returns the hardware state for subject; see Reader.
func (db *DB) HardwareOf(subject string) []deps.Hardware {
	return hardware(db.Query(subject, deps.KindHardware))
}

// SoftwareOf returns the software state for subject; see Reader.
func (db *DB) SoftwareOf(subject string) []deps.Software {
	return software(db.Query(subject, deps.KindSoftware))
}

// WriteXML persists the whole database in the Table 1 XML format.
func (db *DB) WriteXML(w io.Writer) error {
	return deps.EncodeXML(w, db.Records())
}

// ReadXML loads records from the Table 1 XML format into the database, on
// top of any existing content.
func (db *DB) ReadXML(r io.Reader) error {
	records, err := deps.DecodeXML(r)
	if err != nil {
		return err
	}
	return db.Put(records...)
}

// Snapshot is an immutable point-in-time view of a DB: the prefix of one of
// the database's logs that existed when the snapshot was taken, which it
// pins. Queries read-lock the owning database briefly per call — never for
// the duration of a graph build — so audit jobs and writers make progress
// together while the snapshot's contents stay frozen.
type Snapshot struct {
	db    *DB
	log   *recLog
	limit int // the snapshot sees log.entries[:limit]
	n     int // live records among them
	fp    string
}

// Fingerprint returns the snapshot's canonical content hash: a SHA-256
// commitment to the set of its live records' canonical serializations,
// hex-encoded. Two databases holding the same live records have equal
// fingerprints however they came to hold them — any insertion order, any
// number of re-observations, any superseded history — and databases whose
// live records differ do not, which is what makes the hash usable as a
// content-address for cached audit results.
func (s *Snapshot) Fingerprint() string { return s.fp }

// Len returns the number of live records in the snapshot.
func (s *Snapshot) Len() int { return s.n }

// Extends reports whether s is the same or a later generation of the log o
// was taken from. o.Diff(s) then costs only the entries logged in between —
// and a snapshot that o itself extends diffs against s to a superset of
// them. It is false across a compaction: the two then compare as unrelated
// databases do, state against state.
func (s *Snapshot) Extends(o *Snapshot) bool { return s.log == o.log && s.limit >= o.limit }

// Subjects returns every subject with at least one record, sorted.
func (s *Snapshot) Subjects() []string {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.log.subjects(s.limit)
}

// Query returns the live records for subject of the given kind; see Reader.
func (s *Snapshot) Query(subject string, kind deps.Kind) []deps.Record {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.log.query(subject, kind, s.limit)
}

// QueryAll returns every live record about subject, grouped network,
// hardware, software.
func (s *Snapshot) QueryAll(subject string) []deps.Record {
	return queryAll(s, subject)
}

// Records returns a copy of every live record, in first-observation order of
// their identities.
func (s *Snapshot) Records() []deps.Record {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.log.records(s.limit)
}

// Encode writes the snapshot's live records in the canonical Table 1 XML
// format, the durable form the audit service's disk store persists.
// DecodeSnapshot reverses it; the round-trip preserves the Fingerprint.
func (s *Snapshot) Encode(w io.Writer) error {
	return deps.EncodeXML(w, s.Records())
}

// DecodeDB reconstructs a mutable database from Encode's output — the form
// a restarted daemon wants, since later ingests keep landing in it.
func DecodeDB(r io.Reader) (*DB, error) {
	records, err := deps.DecodeXML(r)
	if err != nil {
		return nil, fmt.Errorf("depdb: decoding snapshot: %w", err)
	}
	db := New()
	if err := db.Put(records...); err != nil {
		return nil, fmt.Errorf("depdb: decoding snapshot: %w", err)
	}
	return db, nil
}

// DecodeSnapshot reconstructs an immutable snapshot from Encode's output.
// Record order inside the encoding does not matter: the fingerprint is
// order-independent, so the decoded snapshot content-addresses identically
// to the one encoded.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	db, err := DecodeDB(r)
	if err != nil {
		return nil, err
	}
	return db.Snapshot(), nil
}

// Networks returns the network state for subject; see Reader.
func (s *Snapshot) Networks(subject string) []deps.Network {
	return networks(s.Query(subject, deps.KindNetwork))
}

// HardwareOf returns the hardware state for subject; see Reader.
func (s *Snapshot) HardwareOf(subject string) []deps.Hardware {
	return hardware(s.Query(subject, deps.KindHardware))
}

// SoftwareOf returns the software state for subject; see Reader.
func (s *Snapshot) SoftwareOf(subject string) []deps.Software {
	return software(s.Query(subject, deps.KindSoftware))
}

// The typed accessors unwrap a query's records, which are already the
// subject's current state: hardware and software reduce latest-wins per
// identity, networks hold each distinct route once (redundant routes between
// the same endpoints share an identity and all survive). Order is first
// observation of each identity, so churn does not reshuffle graph layout.

func networks(recs []deps.Record) []deps.Network {
	out := make([]deps.Network, len(recs))
	for i, r := range recs {
		out[i] = *r.Network
	}
	return out
}

func hardware(recs []deps.Record) []deps.Hardware {
	out := make([]deps.Hardware, len(recs))
	for i, r := range recs {
		out[i] = *r.Hardware
	}
	return out
}

func software(recs []deps.Record) []deps.Software {
	out := make([]deps.Software, len(recs))
	for i, r := range recs {
		out[i] = *r.Software
	}
	return out
}

// canonicalLine serializes one record canonically (field separator 0x1f,
// list separator 0x1e — neither occurs in component names); the fingerprint
// and Diff both key on it.
func canonicalLine(r deps.Record) string {
	const fs, ls = "\x1f", "\x1e"
	switch r.Kind {
	case deps.KindNetwork:
		n := r.Network
		return "net" + fs + n.Src + fs + n.Dst + fs + strings.Join(n.Route, ls)
	case deps.KindHardware:
		h := r.Hardware
		return "hw" + fs + h.HW + fs + h.Type + fs + h.Dep
	case deps.KindSoftware:
		s := r.Software
		return "sw" + fs + s.Pgm + fs + s.HW + fs + strings.Join(s.Dep, ls)
	default:
		return fmt.Sprintf("kind(%d)", int(r.Kind))
	}
}
