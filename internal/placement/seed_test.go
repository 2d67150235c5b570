package placement

import (
	"context"
	"strings"
	"sync"
	"testing"

	"indaas/internal/deps"
)

// mapCache is a ScoreCache over a plain map, keyed by the joined node list.
type mapCache struct {
	mu     sync.Mutex
	scores map[string]Score
}

func (c *mapCache) Get(nodes []string) (Score, string, bool) {
	key := strings.Join(nodes, "+")
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.scores[key]
	return s, key, ok
}

func (c *mapCache) Put(key string, s Score) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scores[key] = s
}

// TestSeedScoresSkipRecomputation: a search whose Cache already holds every
// candidate's score re-audits nothing and ranks identically, and one whose
// Cache lost the candidates touching a changed node re-audits exactly those —
// the contract the audit service's candidate memo relies on.
func TestSeedScoresSkipRecomputation(t *testing.T) {
	db, nodes := labDB(t, 8, 2, 3)
	cache := &mapCache{scores: make(map[string]Score)}
	req := Request{Nodes: nodes, Replicas: 2, TopK: 3, Strategy: Exact, Cache: cache}
	ctx := context.Background()

	first, err := Search(ctx, db, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Evaluated == 0 || len(cache.scores) != first.Evaluated {
		t.Fatalf("first search: evaluated=%d cached=%d", first.Evaluated, len(cache.scores))
	}

	second, err := Search(ctx, db, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Evaluated != 0 {
		t.Fatalf("fully cached search ran %d audits, want 0", second.Evaluated)
	}
	if !rankedEqual(first.Top, second.Top) {
		t.Fatalf("cached ranking differs:\n%+v\n%+v", first.Top, second.Top)
	}

	// After a record change: drop every deployment touching s01 from the
	// cache, grow s01's dependencies, and re-search. Only the s01 candidates
	// may be re-audited; the rest come from the cache.
	if err := db.Put(deps.NewSoftware("etcd", "s01", "libc6")); err != nil {
		t.Fatal(err)
	}
	dirtyCandidates := 0
	for k := range cache.scores {
		for _, n := range strings.Split(k, "+") {
			if n == "s01" {
				delete(cache.scores, k)
				dirtyCandidates++
				break
			}
		}
	}
	third, err := Search(ctx, db, req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Evaluated != dirtyCandidates {
		t.Fatalf("partly cached search re-audited %d candidates, want %d", third.Evaluated, dirtyCandidates)
	}
	uncached := req
	uncached.Cache = nil
	full, err := Search(ctx, db, uncached) // ground truth on the new DB
	if err != nil {
		t.Fatal(err)
	}
	if !rankedEqual(third.Top, full.Top) {
		t.Fatalf("partly cached ranking diverges from full recompute:\n%+v\n%+v", third.Top, full.Top)
	}
}
