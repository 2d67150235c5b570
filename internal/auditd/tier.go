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

// memo is a bounded LRU map from content address to a value held in memory,
// behind its own lock so splice planning, report reads and /v1/cache never
// take the job-table lock. Values are immutable and shared by reference.
// Recency and the bound count groups — the values one PutAll holds, dropped
// together — so a request's values are held whole however many it has. A key
// answers from the newest group holding it. A capacity ≤ 0 holds nothing.
type memo[V any] struct {
	mu      sync.Mutex
	cap     int        // in groups
	order   *list.List // front = most recently used; values are *memoGroup[V]
	entries map[string]memoSlot
}

// memoGroup is one PutAll's values, index-aligned with their keys; live
// counts the keys that still answer from it.
type memoGroup[V any] struct {
	keys []string
	vals []V
	live int
}

// memoSlot is where a key's value is: its group's element and index.
type memoSlot struct {
	el *list.Element
	i  int
}

func newMemo[V any](capacity int) *memo[V] {
	return &memo[V]{cap: capacity, order: list.New(), entries: make(map[string]memoSlot)}
}

// Get returns the value held for key and marks its group recently used.
func (m *memo[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sl, ok := m.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.order.MoveToFront(sl.el)
	return sl.el.Value.(*memoGroup[V]).vals[sl.i], true
}

// Put holds val under key as a group of its own.
func (m *memo[V]) Put(key string, val V) {
	m.PutAll([]string{key}, []V{val})
}

// PutAll holds vals[i] under keys[i] as one group, dropping the least
// recently used groups beyond capacity.
func (m *memo[V]) PutAll(keys []string, vals []V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cap <= 0 {
		return
	}
	g := &memoGroup[V]{keys: keys, vals: vals}
	el := m.order.PushFront(g)
	for i, k := range keys {
		if m.entries[k].el != el {
			m.forgetLocked(k)
			g.live++
		}
		m.entries[k] = memoSlot{el, i}
	}
	for m.order.Len() > m.cap {
		oldest := m.order.Back()
		for _, k := range oldest.Value.(*memoGroup[V]).keys {
			if m.entries[k].el == oldest {
				delete(m.entries, k)
			}
		}
		m.order.Remove(oldest)
	}
}

// Remove drops key if present.
func (m *memo[V]) Remove(key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.forgetLocked(key)
}

// forgetLocked stops key answering from its group, and drops the group once
// no key answers from it. Caller holds m.mu.
func (m *memo[V]) forgetLocked(key string) {
	sl, ok := m.entries[key]
	if !ok {
		return
	}
	delete(m.entries, key)
	g := sl.el.Value.(*memoGroup[V])
	if g.live--; g.live == 0 {
		m.order.Remove(sl.el)
	}
}

// Len reports the groups held: for the memory tier, its entries.
func (m *memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// memoryTier is the first tier: the memo of encoded results. Remove mirrors
// disk-store evictions so the memory tier never claims an entry the durable
// tier has given up on; Len is the auditd_cache_entries gauge.
type memoryTier struct {
	*memo[*EncodedResult]
}

func newMemoryTier(capacity int) *memoryTier {
	return &memoryTier{newMemo[*EncodedResult](capacity)}
}

func (t *memoryTier) Name() string { return "memory" }

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
