package psi

import (
	"context"
	cryptorand "crypto/rand"
	"fmt"
	mathrand "math/rand/v2"
	"sync"

	"indaas/internal/crypto/commutative"
)

// PSOPConfig tunes the P-SOP protocol.
type PSOPConfig struct {
	// Workers parallelizes each party's encryption loops — its own dataset
	// and every re-encryption hop — across up to Workers goroutines. The
	// protocol result is identical for every worker count; 0 or 1 is
	// sequential.
	Workers int
}

// Party is one P-SOP party (§4.2.2): it holds a dataset and a commutative
// key nobody else sees, and takes part in exactly one ring.
type Party interface {
	// Own returns the party's dataset disambiguated, hashed, encrypted under
	// its key and permuted.
	Own(ctx context.Context) ([]commutative.Point, error)
	// Reencrypt encrypts another party's dataset under this party's key and
	// permutes it. It may reuse in's storage.
	Reencrypt(ctx context.Context, in []commutative.Point) ([]commutative.Point, error)
}

// localParty is a party whose dataset this process holds.
type localParty struct {
	set     []string
	workers int
	key     *commutative.Key
	perm    *mathrand.Rand
	err     error // drawing the key failed; every step reports it
}

// NewParty returns a party over set, with a fresh key and permutation drawn
// from crypto/rand. workers parallelizes its encryption loops.
func NewParty(set []string, workers int) Party {
	p := &localParty{set: set, workers: workers}
	var seed [32]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		p.err = fmt.Errorf("psi: permutation seed: %w", err)
		return p
	}
	p.perm = mathrand.New(mathrand.NewChaCha8(seed))
	p.key, p.err = commutative.NewKey(cryptorand.Reader)
	return p
}

func (p *localParty) Own(ctx context.Context) ([]commutative.Point, error) {
	if p.err != nil {
		return nil, p.err
	}
	uniq := disambiguate(p.set)
	ds := make([]commutative.Point, len(uniq))
	err := parallelFor(ctx, len(uniq), p.workers, func(j int) error {
		ds[j] = p.key.EncryptElement([]byte(uniq[j]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.permute(ds)
	return ds, nil
}

func (p *localParty) Reencrypt(ctx context.Context, ds []commutative.Point) ([]commutative.Point, error) {
	if p.err != nil {
		return nil, p.err
	}
	err := parallelFor(ctx, len(ds), p.workers, func(j int) (err error) {
		if ds[j], err = p.key.Encrypt(ds[j][:]); err != nil {
			return fmt.Errorf("psi: re-encrypting element %d: %w", j, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.permute(ds)
	return ds, nil
}

func (p *localParty) permute(ds []commutative.Point) {
	p.perm.Shuffle(len(ds), func(a, b int) { ds[a], ds[b] = ds[b], ds[a] })
}

// PSOP runs the private set intersection cardinality protocol of §4.2.2 over
// the given parties' datasets (multisets of normalized component
// identifiers) and returns |∩|, |∪| and measured costs.
func PSOP(cfg PSOPConfig, sets [][]string) (*Result, error) {
	return PSOPContext(context.Background(), cfg, sets)
}

// PSOPContext is PSOP with cancellation: the encryption loops poll ctx and
// abandon the run with ctx's error once it is done. Every dataset is held
// in this process, one local party each, and the ring is Ring's.
func PSOPContext(ctx context.Context, cfg PSOPConfig, sets [][]string) (*Result, error) {
	parties := make([]Party, len(sets))
	for i, s := range sets {
		parties[i] = NewParty(s, cfg.Workers)
	}
	return Ring(ctx, parties)
}

// Ring runs P-SOP over k ≥ 2 parties, wherever their datasets live.
//
// Protocol, per the paper: the k parties form a logical ring and agree on a
// deterministic hash. Each party disambiguates duplicates (e‖i), hashes and
// encrypts every element under its own commutative key, permutes the result
// and sends it to its successor; each successor re-encrypts, re-permutes and
// forwards. After k hops every dataset is encrypted under all k keys, so
// equal plaintexts — regardless of owner — have equal ciphertexts; the
// parties then share the encrypted datasets and count |∩| and |∪| on
// ciphertexts. Ring is the supervisor: it relays every dataset and counts,
// and it only ever holds ciphertexts.
func Ring(ctx context.Context, parties []Party) (*Result, error) {
	k := len(parties)
	if k < 2 {
		return nil, fmt.Errorf("psi: P-SOP needs at least two parties, got %d", k)
	}
	var stats Stats
	const elemSize = commutative.Size

	// Step 1: each party hashes, encrypts and permutes its own dataset.
	datasets := make([][]commutative.Point, k)
	for i, p := range parties {
		ds, err := p.Own(ctx)
		if err != nil {
			return nil, fmt.Errorf("psi: party %d: %w", i, err)
		}
		if len(ds) == 0 {
			return nil, fmt.Errorf("psi: party %d has an empty dataset", i)
		}
		datasets[i] = ds
	}

	// Step 2: k−1 ring hops; each hop re-encrypts and re-permutes.
	for hop := 1; hop < k; hop++ {
		for owner := 0; owner < k; owner++ {
			holder := (owner + hop) % k
			sender := (owner + hop - 1) % k
			stats.Send(sender, int64(len(datasets[owner]))*elemSize)
			ds, err := parties[holder].Reencrypt(ctx, datasets[owner])
			if err != nil {
				return nil, fmt.Errorf("psi: party %d: %w", holder, err)
			}
			datasets[owner] = ds
		}
	}

	// Step 3: each final holder shares the fully-encrypted dataset with the
	// other k−1 parties so everyone can count.
	for owner := 0; owner < k; owner++ {
		holder := (owner + k - 1) % k
		stats.Send(holder, int64(len(datasets[owner]))*elemSize*int64(k-1))
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
