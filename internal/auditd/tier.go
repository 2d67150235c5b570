package auditd

// The result-tier seam: completed results live in a chain of content-
// addressed tiers probed in order — the in-memory LRU first, then the disk
// store, then any extra tiers the embedder configured (a clustered node adds
// a peer-cache tier that asks the key's hash owner). Every tier serves the
// same (key → encoded result) contract, so composing them is just a slice,
// and a result moving between tiers is a pointer moving: no tier decodes.

import (
	"container/list"
	"sync"

	"indaas/internal/store"
)

// ResultTier is one layer of the content-addressed result hierarchy as the
// server reads it: results enter the memory tier and the store where they
// are computed; a tier below memory is only ever probed. Implementations
// synchronize themselves and are called without the job-table lock held.
type ResultTier interface {
	// Name identifies the tier ("memory", "disk", "peer") for attribution:
	// the server counts a hit against the right metric by name.
	Name() string
	// Get returns the result stored under key, if any.
	Get(key string) (*EncodedResult, bool)
}

// tierDisk is the disk tier's Name; the resolve stage uses it to tell a disk
// hit (auditd_store_hits_total, JobStatus.DiskHit) from a peer-tier one.
const tierDisk = "disk"

// memoryTier is the first tier: a bounded LRU of encoded results behind its
// own lock, so delta planning, report reads and /v1/cache never take the
// job-table lock. Entries are immutable and shared by reference (an adopting
// key, a response being written).
type memoryTier struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *EncodedResult
}

func newMemoryTier(capacity int) *memoryTier {
	return &memoryTier{cap: capacity, order: list.New(), entries: make(map[string]*list.Element)}
}

func (t *memoryTier) Name() string { return "memory" }

// Get returns the cached result for key and marks it recently used.
func (t *memoryTier) Get(key string) (*EncodedResult, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[key]
	if !ok {
		return nil, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores a completed result, dropping the least recently used entries
// beyond capacity.
func (t *memoryTier) Put(key string, res *EncodedResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cap <= 0 {
		return
	}
	if el, ok := t.entries[key]; ok {
		el.Value.(*cacheEntry).res = res
		t.order.MoveToFront(el)
		return
	}
	t.entries[key] = t.order.PushFront(&cacheEntry{key: key, res: res})
	for t.order.Len() > t.cap {
		oldest := t.order.Back()
		t.order.Remove(oldest)
		delete(t.entries, oldest.Value.(*cacheEntry).key)
	}
}

// Remove drops key if present; it mirrors disk-store evictions so the memory
// tier never claims an entry the durable tier has given up on.
func (t *memoryTier) Remove(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		t.order.Remove(el)
		delete(t.entries, key)
	}
}

// Len reports live entries (the auditd_cache_entries gauge).
func (t *memoryTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// diskTier is the persistent store read as a tier; writes go through
// Server.persistResult, next to the circuit breaker.
type diskTier struct {
	st *store.Store
}

func (t *diskTier) Name() string { return tierDisk }

// Get adopts a stored record's bytes as read (see parseEnvelope); the store
// verifies their checksum and nothing decodes. An IO failure or a record
// that is not a result envelope is a miss: the computation simply reruns.
func (t *diskTier) Get(key string) (*EncodedResult, bool) {
	blob, kind, ok, err := t.st.Get(key)
	if err != nil || !ok || kind != store.KindResult {
		return nil, false
	}
	res, err := parseEnvelope(blob)
	return res, err == nil
}

// retrieveResult fetches a completed result by content address from the
// tiers at and below from (0 = memory), in order, returning the first hit
// and the name of the tier that served it. Callers probing below memory must
// not hold s.mu: lower tiers do IO (disk reads, peer HTTP fetches).
func (s *Server) retrieveResult(key string, from int) (res *EncodedResult, tier string, ok bool) {
	for _, t := range s.tiers[from:] {
		if r, hit := t.Get(key); hit {
			return r, t.Name(), true
		}
	}
	return nil, "", false
}
