// Package depdb implements DepDB, the dependency information database of §3.
//
// Dependency acquisition modules store their adapted records here; the
// auditing agent queries it while building dependency graphs (§4.1.1
// Steps 2-6). The store is safe for concurrent use, indexes records by
// subject (the server a record is about) and kind, and can persist itself to
// the Table 1 XML format.
//
// Long-running readers — concurrent audit jobs in particular — should not
// hold the database's lock for the duration of a graph build. Snapshot
// returns a registered immutable view over the append-only record log: the
// view is a (generation, fingerprint) pair, so taking one costs O(1) no
// matter how large the database has grown, and any number of snapshots of
// different generations share the same storage. Snapshot queries briefly
// read-lock the database per call (never across a graph build) and see only
// the frozen prefix of the log.
//
// A snapshot carries a content Fingerprint, the canonical hash the audit
// service uses to content-address cached results. The fingerprint is
// maintained incrementally as records are inserted — a homomorphic multiset
// hash over canonical record serializations — so appending a batch costs
// O(batch), not O(database). Two snapshots can also be compared record-wise
// with Diff, the primitive delta audits are built on.
package depdb

import (
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"indaas/internal/deps"
)

// Reader is the read side of a dependency database: what graph builders
// need. Both *DB (live) and *Snapshot (frozen) implement it.
type Reader interface {
	// Query returns the records for subject of the given kind, in
	// insertion order.
	Query(subject string, kind deps.Kind) []deps.Record
	// QueryAll returns every record about subject, grouped network,
	// hardware, software (each group in insertion order).
	QueryAll(subject string) []deps.Record
	// Networks returns the current network state for subject: one record
	// per distinct route, exact re-observations collapsed. Redundant routes
	// between the same endpoints are distinct routes and all survive.
	Networks(subject string) []deps.Network
	// HardwareOf returns the current hardware state for subject: the latest
	// record per slot (machine, component type), so a replaced component
	// shows only its present model.
	HardwareOf(subject string) []deps.Hardware
	// SoftwareOf returns the current software state for subject: the latest
	// record per program, so an upgrade shows only the new closure.
	SoftwareOf(subject string) []deps.Software
	// Subjects returns every subject with at least one record, sorted.
	Subjects() []string
	// Len returns the number of stored records.
	Len() int
}

// view is the shared read-only query core: an append-only record log plus a
// per-subject, per-kind position index. Positions within a bucket are
// strictly increasing, which lets a snapshot see the prefix of any bucket by
// cutting at its generation's record count.
type view struct {
	records []deps.Record
	// index[subject][kind] -> ascending positions into records
	index map[string]map[deps.Kind][]int
}

// query returns the records for subject of the given kind among the first
// limit log entries.
func (v *view) query(subject string, kind deps.Kind, limit int) []deps.Record {
	byKind, ok := v.index[subject]
	if !ok {
		return nil
	}
	positions := byKind[kind]
	cut := sort.SearchInts(positions, limit)
	if cut == 0 {
		return nil
	}
	out := make([]deps.Record, 0, cut)
	for _, p := range positions[:cut] {
		out = append(out, v.records[p])
	}
	return out
}

// subjects returns the subjects with at least one record among the first
// limit log entries, sorted.
func (v *view) subjects(limit int) []string {
	out := make([]string, 0, len(v.index))
	for s, byKind := range v.index {
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

// fpSum is the incrementally-maintained fingerprint state: a 2048-bit
// homomorphic multiset hash (the wrapping sum of per-record digests,
// AdHash-style) plus the record count. Insertion order cannot matter
// because addition commutes; appending one record costs four SHA-512s over
// its canonical line, O(1) regardless of database size. The state is 2048
// bits — not one hash block — because additive multiset hashes at small
// moduli fall to Wagner's generalized-birthday attack (AdHash wants a
// modulus well past 1600 bits for a comfortable margin); an ingest client
// must not be able to craft a batch whose digest sum collides and thereby
// alias a changed database to stale content-addressed results.
type fpSum struct {
	count uint64
	limbs [fpLimbs]uint64 // little-endian 2048-bit accumulator
}

const fpLimbs = 32

// add folds one canonical record line into the sum. The record's 2048-bit
// digest is four domain-separated SHA-512s over the line.
func (s *fpSum) add(line string) {
	buf := make([]byte, 1+len(line))
	copy(buf[1:], line)
	var carry uint64
	limb := 0
	for block := byte(0); block < 4; block++ {
		buf[0] = block
		h := sha512.Sum512(buf)
		for i := 0; i < 8; i++ {
			s.limbs[limb], carry = bits.Add64(s.limbs[limb], binary.LittleEndian.Uint64(h[i*8:]), carry)
			limb++
		}
	}
	s.count++
}

// fingerprint renders the canonical content hash of the accumulated multiset.
func (s fpSum) fingerprint() string {
	var buf [len(fpDomain) + 8 + fpLimbs*8]byte
	copy(buf[:], fpDomain)
	binary.BigEndian.PutUint64(buf[len(fpDomain):], s.count)
	for i := 0; i < fpLimbs; i++ {
		binary.BigEndian.PutUint64(buf[len(fpDomain)+8+i*8:], s.limbs[i])
	}
	h := sha256.Sum256(buf[:])
	return hex.EncodeToString(h[:])
}

// fpDomain separates the fingerprint hash domain from raw record hashes.
const fpDomain = "indaas/depdb/fingerprint/v2\n"

// DB is an in-memory dependency database with per-subject, per-kind indexes.
// The zero value is not usable; call New.
type DB struct {
	mu   sync.RWMutex
	v    view
	sum  fpSum
	snap *Snapshot // registered snapshot; nil after a write
}

// New returns an empty database.
func New() *DB {
	return &DB{v: view{index: make(map[string]map[deps.Kind][]int)}}
}

// merge folds another sum into s: one 2048-bit wrapping addition, the same
// arithmetic add applies per record, so summing a batch apart and merging it
// equals adding its records one by one.
func (s *fpSum) merge(o *fpSum) {
	var carry uint64
	for i := range s.limbs {
		s.limbs[i], carry = bits.Add64(s.limbs[i], o.limbs[i], carry)
	}
	s.count += o.count
}

// Batch is a validated set of records staged for insertion, with its
// contribution to the fingerprint — the sum of its records' digests —
// already hashed. The multiset hash is additive, so the contribution does
// not depend on the database the batch lands in: FingerprintWith previews it
// and PutBatch commits it without hashing any record a second time.
type Batch struct {
	records []deps.Record
	sum     fpSum
}

// NewBatch validates records and hashes each one once. Either every record
// is valid or no batch is returned.
func NewBatch(records ...deps.Record) (*Batch, error) {
	sum, err := stage(records)
	if err != nil {
		return nil, err
	}
	return &Batch{records: records, sum: sum}, nil
}

// stage validates records and sums their digests.
func stage(records []deps.Record) (fpSum, error) {
	var sum fpSum
	for i, r := range records {
		if err := r.Validate(); err != nil {
			return fpSum{}, fmt.Errorf("depdb: record %d: %w", i, err)
		}
		sum.add(canonicalLine(r))
	}
	return sum, nil
}

// Records returns the batch's records in insertion order (not a copy).
func (b *Batch) Records() []deps.Record { return b.records }

// Put validates and stores records. Either all records are stored or none.
// Any registered snapshot is invalidated; snapshots taken earlier keep
// serving their frozen prefix of the log.
func (db *DB) Put(records ...deps.Record) error {
	sum, err := stage(records)
	if err != nil {
		return err
	}
	db.commit(records, &sum)
	return nil
}

// PutBatch stores a staged batch: Put without the validation and hashing
// NewBatch already did.
func (db *DB) PutBatch(b *Batch) { db.commit(b.records, &b.sum) }

// commit appends validated records, whose digests sum to sum, to the log.
func (db *DB) commit(records []deps.Record, sum *fpSum) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.snap = nil
	for _, r := range records {
		pos := len(db.v.records)
		db.v.records = append(db.v.records, r)
		subj := r.Subject()
		byKind := db.v.index[subj]
		if byKind == nil {
			byKind = make(map[deps.Kind][]int)
			db.v.index[subj] = byKind
		}
		byKind[r.Kind] = append(byKind[r.Kind], pos)
	}
	db.sum.merge(sum)
}

// Snapshot returns the registered immutable view of the database's current
// contents. The snapshot is built at most once per write generation: calls
// between two Puts return the identical *Snapshot, so concurrent audit jobs
// share one frozen view (and one Fingerprint). Creating it is O(1) — the
// snapshot is a generation mark over the append-only log, not a copy — and
// it stays valid, and unchanged, after later Puts.
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
		db.snap = &Snapshot{db: db, limit: len(db.v.records), fp: db.sum.fingerprint()}
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
// persist an ingest's outcome before committing the ingest. Cost is O(1):
// the batch's digests were summed when it was staged.
func (db *DB) FingerprintWith(b *Batch) string {
	db.mu.RLock()
	sum := db.sum
	db.mu.RUnlock()
	sum.merge(&b.sum)
	return sum.fingerprint()
}

// Len returns the number of stored records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.v.records)
}

// Subjects returns every subject that has at least one record, sorted.
func (db *DB) Subjects() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.v.subjects(len(db.v.records))
}

// Query returns the records for subject of the given kind, in insertion
// order. The returned slice is a copy.
func (db *DB) Query(subject string, kind deps.Kind) []deps.Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.v.query(subject, kind, len(db.v.records))
}

// QueryAll returns every record about subject, grouped network, hardware,
// software (each group in insertion order).
func (db *DB) QueryAll(subject string) []deps.Record {
	var out []deps.Record
	for _, k := range []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware} {
		out = append(out, db.Query(subject, k)...)
	}
	return out
}

// Records returns a copy of every stored record in insertion order.
func (db *DB) Records() []deps.Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]deps.Record(nil), db.v.records...)
}

// Networks returns the current network state for subject; see Reader.
func (db *DB) Networks(subject string) []deps.Network {
	return unwrapNetworks(db.Query(subject, deps.KindNetwork))
}

// HardwareOf returns the current hardware state for subject; see Reader.
func (db *DB) HardwareOf(subject string) []deps.Hardware {
	return unwrapHardware(db.Query(subject, deps.KindHardware))
}

// SoftwareOf returns the current software state for subject; see Reader.
func (db *DB) SoftwareOf(subject string) []deps.Software {
	return unwrapSoftware(db.Query(subject, deps.KindSoftware))
}

// WriteXML persists the whole database in the Table 1 XML format.
func (db *DB) WriteXML(w io.Writer) error {
	return deps.EncodeXML(w, db.Records())
}

// ReadXML loads records from the Table 1 XML format into the database,
// appending to any existing content.
func (db *DB) ReadXML(r io.Reader) error {
	records, err := deps.DecodeXML(r)
	if err != nil {
		return err
	}
	return db.Put(records...)
}

// Snapshot is an immutable point-in-time view of a DB: the prefix of the
// database's append-only record log that existed when the snapshot was
// taken. Queries read-lock the owning database briefly per call — never for
// the duration of a graph build — so audit jobs and writers make progress
// together while the snapshot's contents stay frozen.
type Snapshot struct {
	db    *DB
	limit int // the snapshot sees records[:limit]
	fp    string
}

// Fingerprint returns the snapshot's canonical content hash: a SHA-256
// commitment to the multiset of its records' canonical serializations,
// hex-encoded. Two databases loaded with the same records in any insertion
// order have equal fingerprints, which is what makes the hash usable as a
// content-address for cached audit results.
func (s *Snapshot) Fingerprint() string { return s.fp }

// Len returns the number of records in the snapshot.
func (s *Snapshot) Len() int { return s.limit }

// Extends reports whether s is the same or a later generation of the
// database o was taken from. o's records are then a prefix of s's, so
// o.Diff(s) is exactly the log suffix ingested in between — and a snapshot
// that o itself extends diffs against s to a superset of that suffix.
func (s *Snapshot) Extends(o *Snapshot) bool { return s.db == o.db && s.limit >= o.limit }

// Subjects returns every subject with at least one record, sorted.
func (s *Snapshot) Subjects() []string {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.v.subjects(s.limit)
}

// Query returns the records for subject of the given kind, in insertion
// order.
func (s *Snapshot) Query(subject string, kind deps.Kind) []deps.Record {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.v.query(subject, kind, s.limit)
}

// QueryAll returns every record about subject, grouped network, hardware,
// software.
func (s *Snapshot) QueryAll(subject string) []deps.Record {
	var out []deps.Record
	for _, k := range []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware} {
		out = append(out, s.Query(subject, k)...)
	}
	return out
}

// Records returns a copy of every record in insertion order.
func (s *Snapshot) Records() []deps.Record {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return append([]deps.Record(nil), s.db.v.records[:s.limit]...)
}

// Encode writes the snapshot's records in the canonical Table 1 XML format,
// the durable form the audit service's disk store persists. DecodeSnapshot
// reverses it; the round-trip preserves the Fingerprint.
func (s *Snapshot) Encode(w io.Writer) error {
	return deps.EncodeXML(w, s.Records())
}

// DecodeDB reconstructs a mutable database from Encode's output — the form
// a restarted daemon wants, since later ingests keep appending to it.
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

// Networks returns the current network state for subject; see Reader.
func (s *Snapshot) Networks(subject string) []deps.Network {
	return unwrapNetworks(s.Query(subject, deps.KindNetwork))
}

// HardwareOf returns the current hardware state for subject; see Reader.
func (s *Snapshot) HardwareOf(subject string) []deps.Hardware {
	return unwrapHardware(s.Query(subject, deps.KindHardware))
}

// SoftwareOf returns the current software state for subject; see Reader.
func (s *Snapshot) SoftwareOf(subject string) []deps.Software {
	return unwrapSoftware(s.Query(subject, deps.KindSoftware))
}

// The unwrap helpers reduce a subject's insertion-ordered record log to its
// current state. The log is append-only — continuous acquisition re-observes
// the same dependencies indefinitely — so raw pass-through would hand graph
// builders every observation ever made: duplicate fault-graph events at
// best, an unboundedly growing graph at worst. Hardware and software reduce
// latest-wins per identity (a record supersedes the previous observation of
// the same slot or program); networks collapse exact re-observations only,
// because redundant routes between the same endpoints share an identity and
// must all survive. Order is first observation of each identity, so churn
// does not reshuffle graph layout.

func unwrapNetworks(recs []deps.Record) []deps.Network {
	seen := make(map[string]bool, len(recs))
	out := make([]deps.Network, 0, len(recs))
	for _, r := range recs {
		line := canonicalLine(r)
		if seen[line] {
			continue
		}
		seen[line] = true
		out = append(out, *r.Network)
	}
	return out
}

func unwrapHardware(recs []deps.Record) []deps.Hardware {
	at := make(map[string]int, len(recs))
	out := make([]deps.Hardware, 0, len(recs))
	for _, r := range recs {
		id := identityKey(r)
		if i, ok := at[id]; ok {
			out[i] = *r.Hardware
			continue
		}
		at[id] = len(out)
		out = append(out, *r.Hardware)
	}
	return out
}

func unwrapSoftware(recs []deps.Record) []deps.Software {
	at := make(map[string]int, len(recs))
	out := make([]deps.Software, 0, len(recs))
	for _, r := range recs {
		id := identityKey(r)
		if i, ok := at[id]; ok {
			out[i] = *r.Software
			continue
		}
		at[id] = len(out)
		out = append(out, *r.Software)
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
