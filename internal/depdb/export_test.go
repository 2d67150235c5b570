package depdb

import "math"

// Compaction policy overrides for the model and soak tests: the threshold is
// a constant everywhere else.

// CompactAlways makes db start a fresh log whenever a commit supersedes
// anything.
func (db *DB) CompactAlways() { db.deadPerLive = 0 }

// CompactNever keeps db on its first log however much of it is superseded.
func (db *DB) CompactNever() { db.deadPerLive = math.MaxInt32 }

// LogLen is the number of entries, live and superseded, in db's current log.
func (db *DB) LogLen() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.log.entries)
}

// HashDomains are the prefixes of every hash the package commits to: the
// fingerprint's and the two scope digests'.
var HashDomains = []string{fpDomain, pairDomain, scopeDomain}
