package psi

import (
	"context"
	cryptorand "crypto/rand"
	"fmt"
	"io"
	mathrand "math/rand"
	"sync"

	"indaas/internal/crypto/commutative"
)

// PSOPConfig tunes the P-SOP protocol.
type PSOPConfig struct {
	// Rand is the randomness source for keys and permutations (default
	// crypto/rand). A fixed Rand yields a deterministic transcript.
	Rand io.Reader
	// Workers parallelizes the encryption loops — each party encrypting its
	// own dataset and every re-encryption hop — across up to Workers
	// goroutines. Key generation and permutation stay sequential so a fixed
	// Rand still yields a deterministic transcript; the protocol result is
	// identical for every worker count. 0 or 1 is sequential.
	Workers int
}

// PSOP runs the private set intersection cardinality protocol of §4.2.2 over
// the given parties' datasets (multisets of normalized component
// identifiers) and returns |∩|, |∪| and measured costs.
//
// Protocol, per the paper: the k parties form a logical ring and agree on a
// deterministic hash. Each party disambiguates duplicates (e‖i), hashes and
// encrypts every element under its own commutative key, permutes the result
// and sends it to its successor; each successor re-encrypts, re-permutes and
// forwards. After k hops every dataset is encrypted under all k keys, so
// equal plaintexts — regardless of owner — have equal ciphertexts; the
// parties then share the encrypted datasets and count |∩| and |∪| on
// ciphertexts.
func PSOP(cfg PSOPConfig, sets [][]string) (*Result, error) {
	return PSOPContext(context.Background(), cfg, sets)
}

// PSOPContext is PSOP with cancellation: the encryption loops poll ctx and
// abandon the run with ctx's error once it is done.
func PSOPContext(ctx context.Context, cfg PSOPConfig, sets [][]string) (*Result, error) {
	k := len(sets)
	if k < 2 {
		return nil, fmt.Errorf("psi: P-SOP needs at least two parties, got %d", k)
	}
	for i, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("psi: party %d has an empty dataset", i)
		}
	}
	rng := cfg.Rand
	if rng == nil {
		rng = cryptorand.Reader
	}

	// Per-party key and permutation source.
	keys := make([]*commutative.Key, k)
	perms := make([]*mathrand.Rand, k)
	for i := range keys {
		key, err := commutative.NewKey(rng)
		if err != nil {
			return nil, fmt.Errorf("psi: party %d keygen: %w", i, err)
		}
		keys[i] = key
		var seed [8]byte
		if _, err := io.ReadFull(rng, seed[:]); err != nil {
			return nil, fmt.Errorf("psi: party %d permutation seed: %w", i, err)
		}
		perms[i] = mathrand.New(mathrand.NewSource(int64(seed[0]) | int64(seed[1])<<8 |
			int64(seed[2])<<16 | int64(seed[3])<<24 | int64(seed[4])<<32 |
			int64(seed[5])<<40 | int64(seed[6])<<48 | int64(seed[7])<<56))
	}

	var stats Stats
	const elemSize = commutative.Size

	// Step 1: each party hashes, encrypts and permutes its own dataset.
	datasets := make([][]commutative.Point, k)
	for i, s := range sets {
		uniq := disambiguate(s)
		ds := make([]commutative.Point, len(uniq))
		key := keys[i]
		err := parallelFor(ctx, len(uniq), cfg.Workers, func(j int) error {
			ds[j] = key.EncryptElement([]byte(uniq[j]))
			return nil
		})
		if err != nil {
			return nil, err
		}
		permute(perms[i], ds)
		datasets[i] = ds
	}

	// Step 2: k−1 ring hops; each hop re-encrypts and re-permutes.
	for hop := 1; hop < k; hop++ {
		for owner := 0; owner < k; owner++ {
			holder := (owner + hop) % k
			sender := (owner + hop - 1) % k
			stats.send(sender, int64(len(datasets[owner]))*elemSize)
			ds := datasets[owner]
			key := keys[holder]
			err := parallelFor(ctx, len(ds), cfg.Workers, func(j int) (err error) {
				if ds[j], err = key.Encrypt(ds[j][:]); err != nil {
					return fmt.Errorf("psi: party %d re-encrypting: %w", holder, err)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			permute(perms[holder], ds)
		}
	}

	// Step 3: each final holder shares the fully-encrypted dataset with the
	// other k−1 parties so everyone can count.
	for owner := 0; owner < k; owner++ {
		holder := (owner + k - 1) % k
		stats.send(holder, int64(len(datasets[owner]))*elemSize*int64(k-1))
	}

	// Step 4: count on ciphertexts. Disambiguation turned multisets into
	// sets, so min/max counts reduce to membership.
	inter, union := countCiphertexts(datasets)
	return &Result{Intersection: inter, Union: union, Stats: stats}, nil
}

// parallelFor runs fn(0..n-1) across up to workers goroutines (striped so
// slot j is always written exactly once), polling ctx between elements. With
// workers <= 1 it degrades to a plain loop. It returns the first error fn
// returns, or ctx's error if the context ended before every element was
// processed.
func parallelFor(ctx context.Context, n, workers int, fn func(j int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			if j&0x3f == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			if err := fn(j); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n; j += workers {
				if ctx.Err() != nil {
					return
				}
				if err := fn(j); err != nil {
					cancel(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return context.Cause(ctx)
}

func permute(rng *mathrand.Rand, ds []commutative.Point) {
	rng.Shuffle(len(ds), func(a, b int) { ds[a], ds[b] = ds[b], ds[a] })
}

func countCiphertexts(datasets [][]commutative.Point) (inter, union int) {
	k := len(datasets)
	seenIn := make(map[commutative.Point]int)
	for _, ds := range datasets {
		for _, c := range ds {
			seenIn[c]++
		}
	}
	union = len(seenIn)
	for _, n := range seenIn {
		if n == k {
			inter++
		}
	}
	return inter, union
}
