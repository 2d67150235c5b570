// Package store implements the audit service's durable state: a
// write-ahead, content-addressed on-disk store for completed audit results
// and ingested DepDB snapshots.
//
// The store is a single append-only segment (`store.log`): every mutation —
// put, delete, eviction — appends one checksummed record and the in-memory
// index replays the log on Open. Crash safety comes from the log discipline
// rather than in-place updates:
//
//   - each record carries a CRC32 over its header, key and value, so a torn
//     write (kill -9, power loss mid-append) is detected, the tail is
//     truncated, and every record before it stays intact;
//   - compaction — rewriting only the live records once enough of the file
//     is dead — builds the new segment in a temp file, fsyncs it, and
//     atomically renames it over the old one, so a crash at any point leaves
//     either the old complete segment or the new complete segment;
//   - appends are fsynced by default, so a result acknowledged to a client
//     survives an immediate hard kill.
//
// Values are opaque bytes; callers (internal/auditd) choose the encoding and
// the content-addressed keys (SHA-256 cache addresses for results, canonical
// DepDB fingerprints for snapshots). Size- and age-based eviction applies to
// KindResult entries only: snapshots are superseded explicitly by their
// writer and metadata is tiny.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"indaas/internal/telemetry"
)

// Kind tags what an entry holds, so `indaas store ls` and eviction can tell
// cached results from DepDB snapshots without decoding values.
type Kind uint8

const (
	// KindResult is a completed audit/recommendation result.
	KindResult Kind = 1
	// KindSnapshot is an encoded DepDB snapshot.
	KindSnapshot Kind = 2
	// KindMeta is small store metadata (e.g. the current-snapshot pointer).
	KindMeta Kind = 3
	// KindJob is a journaled in-flight job: written when auditd accepts a
	// submission, tombstoned when the job settles, and replayed at boot to
	// re-enqueue work a crash interrupted. Exempt from result eviction.
	KindJob Kind = 4
	// kindTombstone marks a deletion; never surfaced to callers.
	kindTombstone Kind = 0xFF
)

func (k Kind) String() string {
	switch k {
	case KindResult:
		return "result"
	case KindSnapshot:
		return "snapshot"
	case KindMeta:
		return "meta"
	case KindJob:
		return "job"
	case kindTombstone:
		return "tombstone"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

const (
	// fileMagic begins every segment; a file too short to hold it is a torn
	// creation and is reinitialized.
	fileMagic = "INDAAS-STORE-v1\n"
	// headerSize is the fixed per-record prefix:
	// crc32(4) kind(1) unixNano(8) keyLen(2) valLen(4).
	headerSize = 19
	// maxValLen bounds a single value; anything larger in a header is
	// treated as corruption.
	maxValLen = 1 << 30
	// segmentName is the single data file inside the store directory.
	segmentName = "store.log"
	// compactMinDead is the least dead bytes worth rewriting the file for.
	compactMinDead = 1 << 20
)

// DefaultMaxBytes bounds live result bytes when Options.MaxBytes is 0.
const DefaultMaxBytes = 256 << 20

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if missing.
	Dir string
	// MaxBytes bounds the live bytes held by KindResult entries; the oldest
	// results are evicted past it. 0 means DefaultMaxBytes; negative means
	// unlimited.
	MaxBytes int64
	// MaxAge evicts KindResult entries older than this on Put/GC; 0 keeps
	// results forever.
	MaxAge time.Duration
	// NoSync skips the fsync after each append. Only tests and benchmarks
	// should set it: a hard kill may then lose recently acknowledged writes
	// (never corrupt older ones).
	NoSync bool

	// Now overrides the clock used to stamp and age records; nil means
	// time.Now. Tests (and the daemon GC-ticker tests in auditd) inject a
	// fake clock here to exercise MaxAge eviction without real waiting.
	Now func() time.Time

	// OpenFile overrides how segment files (compaction temp files included)
	// are opened; nil means os.OpenFile. This is the fault-injection seam:
	// internal/faultinject supplies implementations that fail, shorten, or
	// corrupt chosen writes. Only tests and chaos drills should set it.
	OpenFile func(name string, flag int, perm os.FileMode) (File, error)
}

// File is the store's view of a segment file; *os.File satisfies it, and
// Options.OpenFile may substitute a fault-injecting implementation.
type File interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// RecoveryStats reports what Open found while replaying the segment.
type RecoveryStats struct {
	// Entries is the number of live entries recovered.
	Entries int
	// RecordsScanned counts every well-formed record replayed, including
	// superseded versions and tombstones.
	RecordsScanned int
	// TruncatedBytes is the size of the torn tail dropped (0 for a clean
	// log).
	TruncatedBytes int64
	// QuarantinedBytes is the total size of mid-segment corrupt ranges that
	// recovery skipped after resyncing to a later valid record. Quarantined
	// bytes stay in the file as dead space until compaction rewrites it.
	QuarantinedBytes int64
	// QuarantinedRanges counts the skipped corrupt ranges.
	QuarantinedRanges int
}

// Stats is a point-in-time snapshot of the store counters.
type Stats struct {
	Entries     int
	LiveBytes   int64 // bytes of live records (all kinds)
	ResultBytes int64 // bytes of live KindResult records (the eviction budget)
	FileBytes   int64 // segment size on disk, dead records included
	DeadBytes   int64 // bytes held by superseded/tombstoned records
	Puts        int64
	Deletes     int64
	Evictions   int64
	Compactions int64
	Recovery    RecoveryStats
	// PutLatency and GetLatency are latency distributions over every Put
	// and Get call (fsync included), for the auditd_store_*_seconds
	// histograms.
	PutLatency telemetry.HistogramSnapshot
	GetLatency telemetry.HistogramSnapshot
}

// EntryInfo describes one live entry, for `indaas store ls`.
type EntryInfo struct {
	Key  string
	Kind Kind
	Size int // value bytes
	Time time.Time
}

// entry locates a live record inside the segment.
type entry struct {
	off    int64 // record start
	recLen int64 // full record length (header + key + value)
	valLen int
	kind   Kind
	unix   int64 // write time, nanoseconds
}

// Store is the on-disk store. Safe for concurrent use by one process; do not
// open the same directory from two processes at once.
type Store struct {
	opts     Options
	path     string
	openFile func(name string, flag int, perm os.FileMode) (File, error)

	mu          sync.Mutex
	f           File
	size        int64 // current segment size (append offset)
	index       map[string]entry
	order       []string // keys in append order (may contain dead keys)
	liveBytes   int64
	resultBytes int64
	deadBytes   int64
	recovery    RecoveryStats
	puts        int64
	deletes     int64
	evictions   int64
	compactions int64
	closed      bool

	// Latency histograms are internally atomic and live outside mu so
	// ObserveSince in Put/Get also captures lock-wait time.
	putLatency telemetry.Histogram
	getLatency telemetry.Histogram
}

// Open opens (or creates) the store in opts.Dir, replaying the segment into
// memory. A torn tail — the residue of a crash mid-append — is detected by
// checksum, truncated away, and reported in Recovery(); entries written
// before it are unaffected.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: Options.Dir is required")
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		opts:  opts,
		path:  filepath.Join(opts.Dir, segmentName),
		index: make(map[string]entry),
	}
	s.openFile = opts.OpenFile
	if s.openFile == nil {
		s.openFile = func(name string, flag int, perm os.FileMode) (File, error) {
			return os.OpenFile(name, flag, perm)
		}
	}
	// A crash between compaction's fsync and rename leaves a stale temp
	// segment; it holds nothing the real segment doesn't, so drop it.
	os.Remove(s.path + ".tmp")
	f, err := s.openFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover replays the segment, building the index. A corrupt record is
// handled by where it sits: mid-segment corruption (bad media, a torn
// write later overwritten partially) is quarantined — recovery resyncs to
// the next checksummed record and keeps everything after it — while
// corruption with no valid record behind it is the classic torn tail and
// is truncated in place so later appends continue from a verified prefix.
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size < int64(len(fileMagic)) {
		// Empty store, or a creation torn before the magic finished; size is
		// the residue dropped (0 for a genuinely fresh file).
		s.recovery.TruncatedBytes = size
		return s.reset()
	}
	magic := make([]byte, len(fileMagic))
	if _, err := s.f.ReadAt(magic, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if string(magic) != fileMagic {
		return fmt.Errorf("store: %s is not an indaas store segment", s.path)
	}

	off := int64(len(fileMagic))
	for off < size {
		rec, key, _, err := readRecordAt(s.f, off, size)
		if err != nil {
			next := nextValidRecord(s.f, off+1, size)
			if next < 0 {
				// No intact record follows: torn tail, drop it. The bytes
				// before off were fully verified.
				s.recovery.TruncatedBytes = size - off
				break
			}
			// An intact record follows: quarantine the corrupt range as
			// dead bytes and carry on, so one bad record cannot take the
			// rest of the segment down with it.
			s.recovery.QuarantinedBytes += next - off
			s.recovery.QuarantinedRanges++
			s.deadBytes += next - off
			off = next
			continue
		}
		s.recovery.RecordsScanned++
		s.applyReplayed(string(key), entry{
			off: off, recLen: rec.recLen, valLen: int(rec.valLen), kind: rec.kind, unix: rec.unix,
		})
		off += rec.recLen
	}
	s.size = off
	if s.recovery.TruncatedBytes > 0 {
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
		if !s.opts.NoSync {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
	}
	s.recovery.Entries = len(s.index)
	return nil
}

// reset initializes an empty segment (fresh store, or torn-before-magic).
func (s *Store) reset() error {
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.f.WriteAt([]byte(fileMagic), 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if !s.opts.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.size = int64(len(fileMagic))
	return nil
}

// applyReplayed folds one replayed record into the index with last-write-wins
// semantics, maintaining the live/dead byte accounting.
func (s *Store) applyReplayed(key string, e entry) {
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.recLen
		if old.kind == KindResult {
			s.resultBytes -= old.recLen
		}
		s.deadBytes += old.recLen
	} else if e.kind != kindTombstone {
		s.order = append(s.order, key)
	}
	if e.kind == kindTombstone {
		delete(s.index, key)
		s.deadBytes += e.recLen
		return
	}
	s.index[key] = e
	s.liveBytes += e.recLen
	if e.kind == KindResult {
		s.resultBytes += e.recLen
	}
}

// recordHeader is the decoded fixed prefix of one record.
type recordHeader struct {
	kind   Kind
	unix   int64
	keyLen int
	valLen uint32
	recLen int64
}

var errCorrupt = errors.New("store: corrupt record")

// readRecordAt reads and verifies the record starting at off in a segment
// of the given size.
func readRecordAt(f io.ReaderAt, off, size int64) (recordHeader, []byte, []byte, error) {
	return readRecord(io.NewSectionReader(f, off, size-off), size-off)
}

// nextValidRecord scans forward from start for the next offset at which a
// fully checksummed record begins, or -1 when none follows. Candidates are
// cheap to reject: almost every misaligned offset fails the kind/length
// sanity checks after a header-sized read, long before the CRC runs.
func nextValidRecord(f io.ReaderAt, start, size int64) int64 {
	for off := start; off+headerSize <= size; off++ {
		if _, _, _, err := readRecordAt(f, off, size); err == nil {
			return off
		}
	}
	return -1
}

// readRecord reads and verifies one record. io.EOF means a clean end of
// segment; any other error means the remaining bytes are torn or corrupt.
// remaining is the byte budget to the end of the file, used to reject
// headers whose lengths point past it.
func readRecord(r io.Reader, remaining int64) (recordHeader, []byte, []byte, error) {
	var h recordHeader
	if remaining == 0 {
		return h, nil, nil, io.EOF
	}
	if remaining < headerSize {
		return h, nil, nil, errCorrupt
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return h, nil, nil, errCorrupt
	}
	crc := binary.BigEndian.Uint32(hdr[0:4])
	h.kind = Kind(hdr[4])
	h.unix = int64(binary.BigEndian.Uint64(hdr[5:13]))
	h.keyLen = int(binary.BigEndian.Uint16(hdr[13:15]))
	h.valLen = binary.BigEndian.Uint32(hdr[15:19])
	switch h.kind {
	case KindResult, KindSnapshot, KindMeta, KindJob, kindTombstone:
	default:
		return h, nil, nil, errCorrupt
	}
	if h.keyLen == 0 || h.valLen > maxValLen {
		return h, nil, nil, errCorrupt
	}
	h.recLen = int64(headerSize) + int64(h.keyLen) + int64(h.valLen)
	if h.recLen > remaining {
		return h, nil, nil, errCorrupt
	}
	body := make([]byte, int(h.keyLen)+int(h.valLen))
	if _, err := io.ReadFull(r, body); err != nil {
		return h, nil, nil, errCorrupt
	}
	sum := crc32.NewIEEE()
	sum.Write(hdr[4:])
	sum.Write(body)
	if sum.Sum32() != crc {
		return h, nil, nil, errCorrupt
	}
	return h, body[:h.keyLen], body[h.keyLen:], nil
}

// encodeRecord serializes one record, checksummed.
func encodeRecord(kind Kind, unix int64, key string, val []byte) []byte {
	buf := make([]byte, headerSize+len(key)+len(val))
	buf[4] = byte(kind)
	binary.BigEndian.PutUint64(buf[5:13], uint64(unix))
	binary.BigEndian.PutUint16(buf[13:15], uint16(len(key)))
	binary.BigEndian.PutUint32(buf[15:19], uint32(len(val)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], val)
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	return buf
}

// Put stores val under key, superseding any previous value. It returns the
// keys of entries evicted to keep results within the size/age budget, so the
// caller can mirror the evictions into its in-memory cache.
func (s *Store) Put(key string, kind Kind, val []byte) ([]string, error) {
	defer s.putLatency.ObserveSince(time.Now())
	if len(key) == 0 || len(key) > 0xFFFF {
		return nil, fmt.Errorf("store: key length %d out of range", len(key))
	}
	if int64(len(val)) > maxValLen {
		return nil, fmt.Errorf("store: value of %d bytes exceeds the %d-byte cap", len(val), maxValLen)
	}
	if kind != KindResult && kind != KindSnapshot && kind != KindMeta && kind != KindJob {
		return nil, fmt.Errorf("store: cannot put entries of kind %s", kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	if err := s.appendLocked(kind, key, val); err != nil {
		return nil, err
	}
	s.puts++
	evicted, err := s.enforceBudgetLocked()
	if err != nil {
		return evicted, err
	}
	if err := s.syncLocked(); err != nil {
		return evicted, err
	}
	return evicted, s.maybeCompactLocked()
}

// appendLocked writes one live record and updates the index.
func (s *Store) appendLocked(kind Kind, key string, val []byte) error {
	unix := s.opts.Now().UnixNano()
	rec := encodeRecord(kind, unix, key, val)
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	e := entry{off: s.size, recLen: int64(len(rec)), valLen: len(val), kind: kind, unix: unix}
	s.size += e.recLen
	s.applyReplayed(key, e)
	return nil
}

// appendTombstoneLocked records a deletion for key (which must be live).
func (s *Store) appendTombstoneLocked(key string) error {
	rec := encodeRecord(kindTombstone, s.opts.Now().UnixNano(), key, nil)
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	e := entry{off: s.size, recLen: int64(len(rec)), kind: kindTombstone}
	s.size += e.recLen
	s.applyReplayed(key, e)
	return nil
}

// enforceBudgetLocked evicts the oldest KindResult entries until the size
// and age budgets hold, returning the evicted keys. Without an age budget a
// store within its size budget has nothing to evict, and the call does no
// per-key work.
func (s *Store) enforceBudgetLocked() ([]string, error) {
	s.compactOrderLocked()
	if s.opts.MaxAge <= 0 && (s.opts.MaxBytes <= 0 || s.resultBytes <= s.opts.MaxBytes) {
		return nil, nil
	}
	var evicted []string
	cutoff := int64(0)
	if s.opts.MaxAge > 0 {
		cutoff = s.opts.Now().Add(-s.opts.MaxAge).UnixNano()
	}
	// order is first-append-ordered; overwrites can make write times locally
	// non-monotonic, so the walk covers every live result rather than
	// stopping at the first young entry. Size eviction takes the front-most
	// (oldest-appended) results first.
	for i := 0; i < len(s.order); i++ {
		key := s.order[i]
		e, ok := s.index[key]
		if !ok || e.kind != KindResult {
			continue
		}
		overSize := s.opts.MaxBytes > 0 && s.resultBytes > s.opts.MaxBytes
		tooOld := cutoff > 0 && e.unix < cutoff
		if !overSize && !tooOld {
			continue
		}
		if err := s.appendTombstoneLocked(key); err != nil {
			return evicted, err
		}
		s.evictions++
		evicted = append(evicted, key)
	}
	return evicted, nil
}

// compactOrderLocked drops dead and duplicate keys from the append-order
// list once enough accumulate, keeping budget walks linear in live entries.
// Duplicates arise when a deleted/evicted key is later re-put: the re-put
// appends the key again because the index no longer remembers the first
// occurrence.
func (s *Store) compactOrderLocked() {
	if len(s.order) < 2*len(s.index)+64 {
		return
	}
	seen := make(map[string]bool, len(s.index))
	live := s.order[:0]
	for _, key := range s.order {
		if _, ok := s.index[key]; ok && !seen[key] {
			seen[key] = true
			live = append(live, key)
		}
	}
	s.order = live
}

// syncLocked flushes the segment unless the store was opened with NoSync.
func (s *Store) syncLocked() error {
	if s.opts.NoSync {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get returns the value stored under key, verifying its checksum.
func (s *Store) Get(key string) ([]byte, Kind, bool, error) {
	defer s.getLatency.ObserveSince(time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, false, errors.New("store: closed")
	}
	e, ok := s.index[key]
	if !ok {
		return nil, 0, false, nil
	}
	r := io.NewSectionReader(s.f, e.off, e.recLen)
	_, gotKey, val, err := readRecord(r, e.recLen)
	if err != nil {
		return nil, 0, false, fmt.Errorf("store: entry %q at offset %d failed verification: %w", key, e.off, err)
	}
	if string(gotKey) != key {
		return nil, 0, false, fmt.Errorf("store: entry %q at offset %d holds key %q", key, e.off, gotKey)
	}
	return val, e.kind, true, nil
}

// Delete removes key, appending a tombstone. Deleting an absent key is a
// no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	if err := s.appendTombstoneLocked(key); err != nil {
		return err
	}
	s.deletes++
	if err := s.syncLocked(); err != nil {
		return err
	}
	return s.maybeCompactLocked()
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Entries lists every live entry, oldest first.
func (s *Store) Entries() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EntryInfo, 0, len(s.index))
	for key, e := range s.index {
		out = append(out, EntryInfo{Key: key, Kind: e.kind, Size: e.valLen, Time: time.Unix(0, e.unix)})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Recovery reports what Open found while replaying the segment.
func (s *Store) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.index),
		LiveBytes:   s.liveBytes,
		ResultBytes: s.resultBytes,
		FileBytes:   s.size,
		DeadBytes:   s.deadBytes,
		Puts:        s.puts,
		Deletes:     s.deletes,
		Evictions:   s.evictions,
		Compactions: s.compactions,
		Recovery:    s.recovery,
		PutLatency:  s.putLatency.Snapshot(),
		GetLatency:  s.getLatency.Snapshot(),
	}
}

// GC applies the size/age eviction policy immediately and compacts the
// segment if enough of it is dead. It returns the evicted keys.
func (s *Store) GC() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("store: closed")
	}
	evicted, err := s.enforceBudgetLocked()
	if err != nil {
		return evicted, err
	}
	if len(evicted) > 0 {
		if err := s.syncLocked(); err != nil {
			return evicted, err
		}
	}
	return evicted, s.maybeCompactLocked()
}

// Compact rewrites the segment down to its live records unconditionally.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.compactLocked()
}

// maybeCompactLocked compacts when the dead fraction justifies the rewrite.
func (s *Store) maybeCompactLocked() error {
	if s.deadBytes < compactMinDead || s.deadBytes*2 < s.size {
		return nil
	}
	return s.compactLocked()
}

// compactLocked rewrites live records into a temp segment and atomically
// renames it into place. A crash at any point leaves either the old or the
// new complete segment.
func (s *Store) compactLocked() error {
	tmpPath := s.path + ".tmp"
	tmp, err := s.openFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after the rename succeeds

	if _, err := tmp.WriteAt([]byte(fileMagic), 0); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	// Rewrite live records in append order so relative ages survive; index
	// offsets are rebuilt as we go.
	off := int64(len(fileMagic))
	newIndex := make(map[string]entry, len(s.index))
	newOrder := make([]string, 0, len(s.index))
	var liveBytes, resultBytes int64
	for _, key := range s.order {
		e, ok := s.index[key]
		if !ok {
			continue
		}
		if _, done := newIndex[key]; done {
			// A delete-then-re-put leaves the key twice in s.order; write
			// its (single) live record once.
			continue
		}
		r := io.NewSectionReader(s.f, e.off, e.recLen)
		_, _, val, err := readRecord(r, e.recLen)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: entry %q: %w", key, err)
		}
		rec := encodeRecord(e.kind, e.unix, key, val)
		if _, err := tmp.WriteAt(rec, off); err != nil {
			tmp.Close()
			return fmt.Errorf("store: compact: %w", err)
		}
		ne := e
		ne.off = off
		ne.recLen = int64(len(rec))
		off += ne.recLen
		newIndex[key] = ne
		newOrder = append(newOrder, key)
		liveBytes += ne.recLen
		if ne.kind == KindResult {
			resultBytes += ne.recLen
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	syncDir(s.opts.Dir)
	f, err := s.openFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: reopening segment: %w", err)
	}
	s.f.Close()
	s.f = f
	s.size = off
	s.index = newIndex
	s.order = newOrder
	s.liveBytes = liveBytes
	s.resultBytes = resultBytes
	s.deadBytes = 0
	s.compactions++
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable; best-effort
// on filesystems that do not support it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// VerifyResult reports a full integrity scan of the segment.
type VerifyResult struct {
	// Records counts every well-formed record, superseded ones included.
	Records int
	// Entries counts live entries after replay.
	Entries int
	// Bytes is the verified byte count (magic included).
	Bytes int64
	// TornBytes is the size of an unverifiable tail, 0 when the whole
	// segment checks out.
	TornBytes int64
	// QuarantinedBytes is the size of mid-segment corrupt ranges a recovery
	// would skip (dead space until compaction); the records around them are
	// intact.
	QuarantinedBytes int64
}

// OK reports whether the scan verified the entire segment. Quarantined
// ranges do not fail verification: they are already-detected dead space
// that recovery routes around.
func (v VerifyResult) OK() bool { return v.TornBytes == 0 }

// Verify re-reads the whole segment from disk, checking every record's
// checksum, and reports what a recovery at this instant would find.
func (s *Store) Verify() (VerifyResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return VerifyResult{}, errors.New("store: closed")
	}
	return scanSegment(s.f, s.size), nil
}

// VerifyDir scans a store directory's segment read-only, WITHOUT opening
// the store: Open's recovery truncates (and fsyncs away) a torn tail, so a
// verification that went through Open would destroy the very evidence it is
// meant to report. A missing segment verifies as an empty store.
func VerifyDir(dir string) (VerifyResult, error) {
	f, err := os.Open(filepath.Join(dir, segmentName))
	if os.IsNotExist(err) {
		return VerifyResult{}, nil
	}
	if err != nil {
		return VerifyResult{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return VerifyResult{}, fmt.Errorf("store: %w", err)
	}
	return scanSegment(f, fi.Size()), nil
}

// scanSegment checksums every record in a segment of the given size,
// replaying live entries; it never writes.
func scanSegment(f io.ReaderAt, size int64) VerifyResult {
	var out VerifyResult
	magic := make([]byte, len(fileMagic))
	if size < int64(len(fileMagic)) {
		out.TornBytes = size
		return out
	}
	if _, err := f.ReadAt(magic, 0); err != nil || string(magic) != fileMagic {
		out.TornBytes = size
		return out
	}
	live := make(map[string]bool)
	off := int64(len(fileMagic))
	for off < size {
		rec, key, _, err := readRecordAt(f, off, size)
		if err != nil {
			// Mirror recovery: resync past mid-segment corruption, report a
			// torn tail only when no intact record follows.
			next := nextValidRecord(f, off+1, size)
			if next < 0 {
				out.TornBytes = size - off
				break
			}
			out.QuarantinedBytes += next - off
			off = next
			continue
		}
		out.Records++
		if rec.kind == kindTombstone {
			delete(live, string(key))
		} else {
			live[string(key)] = true
		}
		off += rec.recLen
	}
	out.Bytes = off
	out.Entries = len(live)
	return out
}

// Close flushes and closes the segment. Further calls on the store fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
