package placement

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"indaas/internal/depdb"
	"indaas/internal/sia"
)

// evaluator scores candidate deployments through the SIA pipeline, fanning
// batches across a worker pool and memoizing per-deployment scores so the
// iterative strategies (greedy, beam) never audit the same node set twice;
// Request.Cache, when set, answers before any audit runs.
type evaluator struct {
	db  depdb.Reader
	req *Request

	mu        sync.Mutex
	cache     map[string]Score
	evaluated int // audits actually run
}

func newEvaluator(db depdb.Reader, req *Request) *evaluator {
	return &evaluator{db: db, req: req, cache: make(map[string]Score)}
}

func (e *evaluator) evaluatedCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evaluated
}

// scoreBatch returns one score per deployment (each a sorted node list),
// scoring memo misses in parallel. The first audit error cancels the rest of
// the batch; a canceled context surfaces as ctx.Err().
func (e *evaluator) scoreBatch(ctx context.Context, sets [][]string) ([]Score, error) {
	scores := make([]Score, len(sets))
	var misses []int
	e.mu.Lock()
	for i, set := range sets {
		if s, ok := e.cache[deploymentKey(set)]; ok {
			scores[i] = s
		} else {
			misses = append(misses, i)
		}
	}
	e.mu.Unlock()
	if len(misses) == 0 {
		return scores, nil
	}

	workers := e.req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(misses) {
		workers = len(misses)
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		audited  atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel() // stop the rest of the batch promptly
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(misses) {
					return
				}
				if err := bctx.Err(); err != nil {
					fail(err)
					return
				}
				idx := misses[i]
				s, err := e.score(bctx, sets[idx], &audited)
				if err != nil {
					fail(err)
					return
				}
				scores[idx] = s
			}
		}()
	}
	wg.Wait()
	e.mu.Lock()
	e.evaluated += int(audited.Load())
	e.mu.Unlock()
	if firstErr != nil {
		// Prefer the caller's cancellation cause over the derived batch
		// context's.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, firstErr
	}
	e.mu.Lock()
	for _, idx := range misses {
		e.cache[deploymentKey(sets[idx])] = scores[idx]
	}
	e.mu.Unlock()
	return scores, nil
}

// score returns a candidate's score from Request.Cache or, failing that, by
// auditing it — counted in audited — and telling the cache.
func (e *evaluator) score(ctx context.Context, nodes []string, audited *atomic.Int64) (Score, error) {
	c := e.req.Cache
	var key string
	if c != nil {
		s, k, ok := c.Get(nodes)
		if ok {
			return s, nil
		}
		key = k
	}
	audited.Add(1)
	s, err := e.scoreOne(ctx, nodes)
	if err == nil && c != nil {
		c.Put(key, s)
	}
	return s, err
}

// scoreOne audits a single deployment: fault graph build (§4.1.1) plus RG
// determination and ranking (§4.1.2–4.1.4) under the request's options.
func (e *evaluator) scoreOne(ctx context.Context, nodes []string) (Score, error) {
	// The "placement:" prefix keeps the top-event label distinct from the
	// per-server gates (a one-node deployment named "s01" would otherwise
	// collide with its own "s01 fails" gate).
	spec := sia.GraphSpec{
		Deployment: "placement:" + strings.Join(nodes, "+"),
		Servers:    nodes,
		Kinds:      e.req.Kinds,
		Prob:       e.req.Prob,
	}
	g, err := sia.BuildGraph(e.db, spec)
	if err != nil {
		return Score{}, err
	}
	audit, err := sia.AuditContext(ctx, g, spec, e.req.Audit)
	if err != nil {
		return Score{}, err
	}
	return Score{
		SizeVector:   audit.SizeVector(),
		RGCount:      len(audit.RGs),
		Unexpected:   audit.Unexpected,
		Independence: audit.Score,
		FailureProb:  audit.FailureProb,
	}, nil
}
