package depdb

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"

	"indaas/internal/deps"
)

// Scope digests address what one audit reads instead of the whole database.
// BuildGraph reads exactly the records of a deployment's servers, restricted
// to the spec's kinds (§4.1.1 Steps 2–6), so a result is a pure function of
// those (subject, kind) pairs: a digest over their live canonical lines names
// its input as precisely as Fingerprint names the database's, and a change
// anywhere else leaves it alone.

// The hash domains of scope digests: pairDomain for one (subject, kind)'s
// live lines, scopeDomain for an ordered list of such pairs. No two of them
// and fpDomain share a prefix, so a scope digest is never a fingerprint — an
// address derived from a whole-database fingerprint cannot alias one derived
// from a scope.
const (
	pairDomain  = "indaas/depdb/scope-pair/v1\n"
	scopeDomain = "indaas/depdb/scope/v1\n"
)

// allKinds is what an empty kind list means, as in GraphSpec.Kinds.
var allKinds = []deps.Kind{deps.KindNetwork, deps.KindHardware, deps.KindSoftware}

// pairKey names one (subject, kind) pair of a snapshot.
type pairKey struct {
	subject string
	kind    deps.Kind
}

// Scope returns the content address of the live records the given subjects
// hold under kinds (nil or empty: every kind), in that order: a hex SHA-256
// over one digest per (subject, kind) pair. Each pair's digest is computed
// from its live canonical lines, sorted, on first use and memoized on the
// snapshot, so it depends on the reduced state alone — not on insertion
// order, re-observation or when the log compacted — and a batch about one
// subject leaves every other subject's digests as they were.
func (s *Snapshot) Scope(subjects []string, kinds []deps.Kind) string {
	if len(kinds) == 0 {
		kinds = allKinds
	}
	var stack [512]byte
	buf := append(stack[:0], scopeDomain...)
	for _, subj := range subjects {
		for _, k := range kinds {
			d := s.pairDigest(subj, k)
			buf = append(buf, d[:]...)
		}
	}
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// pairDigest returns the memoized digest of subject's live records of kind.
func (s *Snapshot) pairDigest(subject string, kind deps.Kind) [sha256.Size]byte {
	key := pairKey{subject, kind}
	s.scopeMu.Lock()
	d, ok := s.scopes[key]
	s.scopeMu.Unlock()
	if ok {
		return d
	}
	s.db.mu.RLock()
	lines := s.log.lines(subject, kind, s.limit)
	s.db.mu.RUnlock()
	slices.Sort(lines)
	buf := append([]byte(pairDomain), byte(kind))
	buf = appendFrame(buf, subject) // framed as in a segment
	for _, line := range lines {
		buf = appendFrame(buf, line)
	}
	d = sha256.Sum256(buf)
	s.scopeMu.Lock()
	if s.scopes == nil {
		s.scopes = make(map[pairKey][sha256.Size]byte)
	}
	s.scopes[key] = d
	s.scopeMu.Unlock()
	return d
}

// lines returns the canonical lines of subject's live records of kind among
// the first limit log entries, in first-observation order.
func (l *recLog) lines(subject string, kind deps.Kind, limit int) []string {
	positions := l.index[subject][kind]
	cut := sort.SearchInts(positions, limit)
	out, _ := reduce(l, positions[:cut], cut, lineOf)
	return out
}
