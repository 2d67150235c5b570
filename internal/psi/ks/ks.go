// Package ks is a Kissner–Song-style private set intersection cardinality
// protocol based on Paillier homomorphic encryption and polynomial
// evaluation ([38], §6.3.2): the baseline the paper compares P-SOP against in
// Fig. 8, Fig. 9 and Table 2. Only the experiments run it; the audit service
// runs P-SOP (package psi) across a trust boundary and nothing else.
package ks

import (
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	mathrand "math/rand"
	"sort"

	"indaas/internal/crypto/paillier"
	"indaas/internal/psi"
)

// Config tunes the Kissner–Song-style protocol.
type Config struct {
	// Bits is the Paillier modulus size (default 1024, matching the paper's
	// Fig. 8 setting; 512 keeps CI-scale benches fast).
	Bits int
	// Rand is the randomness source (default crypto/rand).
	Rand io.Reader
	// Key optionally reuses the leader's key pair, amortizing generation.
	Key *paillier.PrivateKey
	// BlindBits bounds the bit width of random blinding-polynomial
	// coefficients; 0 means full plaintext width (the faithful setting).
	// Small widths (e.g. 64) cut the homomorphic exponentiation cost
	// roughly proportionally at a corresponding loss of blinding slack —
	// used to keep CI-scale tests fast; correctness is unaffected.
	BlindBits int
}

// Run runs a Kissner–Song-style private set intersection cardinality protocol
// [38] over the parties' datasets and returns |∩| (set semantics; the union
// is not computed — Result.Union is -1).
//
// Honest-but-curious construction following the communication pattern of
// [38] (leader = party 0 holds the Paillier key; real KS uses threshold
// decryption, which changes trust but not asymptotics):
//
//  1. Every party i represents its (deduplicated, hashed) set as the
//     polynomial f_i(x) = Π (x − a), encrypts its coefficients and
//     broadcasts them to every other party — k(k−1) transfers of n+1
//     ciphertexts.
//  2. Every party i multiplies each received encrypted polynomial by a
//     fresh random polynomial of matching degree (scalar-multiplying
//     encrypted coefficients) and broadcasts its partial sum
//     Enc(Σ_j f_j·r_{i,j}) — k(k−1) transfers of 2n+1 ciphertexts. Summing
//     all partials yields Enc(λ), λ = Σ_{i,j} f_j·r_{i,j}: an element a is
//     in every set iff every f_j(a) = 0, hence λ(a) = 0 (and λ(a) ≠ 0
//     w.h.p. otherwise).
//  3. The last party evaluates Enc(λ(a)) for each of its elements by
//     Horner's rule over the encrypted coefficients, blinds each value with
//     a fresh random multiplier, re-randomizes, shuffles, and returns the
//     batch to the leader, which decrypts and counts zeros: |∩|.
//
// Both the O(k²·n) ciphertext traffic and the O(k²·n²) homomorphic
// polynomial arithmetic are the scaling behaviour Fig. 8 contrasts with
// P-SOP's linear pipeline.
func Run(cfg Config, sets [][]string) (*psi.Result, error) {
	k := len(sets)
	if k < 2 {
		return nil, fmt.Errorf("ks: need at least two parties, got %d", k)
	}
	for i, s := range sets {
		if len(s) == 0 {
			return nil, fmt.Errorf("ks: party %d has an empty dataset", i)
		}
	}
	bits := cfg.Bits
	if bits == 0 {
		bits = 1024
	}
	rng := cfg.Rand
	if rng == nil {
		rng = cryptorand.Reader
	}
	sk := cfg.Key
	if sk == nil {
		var err error
		sk, err = paillier.GenerateKey(rng, bits)
		if err != nil {
			return nil, err
		}
	}
	pk := &sk.PublicKey

	var seed [8]byte
	if _, err := io.ReadFull(rng, seed[:]); err != nil {
		return nil, fmt.Errorf("ks: drawing shuffle seed: %w", err)
	}
	shuffler := mathrand.New(mathrand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))

	var stats psi.Stats
	ctSize := int64(pk.CiphertextSize())

	// Hash every party's deduplicated set to 64-bit field elements (small
	// evaluation points keep the homomorphic exponentiations affordable;
	// collisions are negligible at these set sizes).
	hashed := make([][]*big.Int, k)
	for i, s := range sets {
		uniq := dedupe(s)
		hs := make([]*big.Int, len(uniq))
		for j, e := range uniq {
			hs[j] = hashElement64(e)
		}
		hashed[i] = hs
	}

	// Maximum blinded-polynomial degree across parties (deg f_i·r_{j,i} = 2n_i).
	maxDeg := 0
	for _, hs := range hashed {
		if d := 2 * len(hs); d > maxDeg {
			maxDeg = d
		}
	}

	// Phase 1: every party encrypts its polynomial's coefficients and
	// broadcasts them to the other k−1 parties.
	encPolys := make([][]*big.Int, k)
	for i := 0; i < k; i++ {
		fi := polyFromRoots(hashed[i], pk.N)
		enc := make([]*big.Int, len(fi))
		for j, coeff := range fi {
			c, err := pk.Encrypt(rng, coeff)
			if err != nil {
				return nil, err
			}
			enc[j] = c
		}
		encPolys[i] = enc
		stats.Send(i, int64(len(enc))*ctSize*int64(k-1))
	}

	// Phase 2: every party i computes its partial Enc(Σ_j f_j·r_{i,j}) by
	// scalar-multiplying each encrypted polynomial with a fresh random
	// polynomial, and broadcasts the partial to the other parties.
	// Summing every partial yields Enc(λ).
	blindMax := pk.N
	if cfg.BlindBits > 0 && cfg.BlindBits < pk.N.BitLen() {
		blindMax = new(big.Int).Lsh(big.NewInt(1), uint(cfg.BlindBits))
	}
	acc := make([]*big.Int, maxDeg+1) // encrypted coefficients, low to high
	for i := 0; i < k; i++ {
		partial := make([]*big.Int, maxDeg+1)
		for j := 0; j < k; j++ {
			ri, err := randomPoly(rng, len(hashed[j]), blindMax)
			if err != nil {
				return nil, err
			}
			// Enc(f_j · r_{i,j})[d] = Σ_{a+b=d} Enc(f_j[a])^{r_{i,j}[b]}.
			for a, cf := range encPolys[j] {
				for b, rb := range ri {
					term := pk.MulConst(cf, rb)
					if partial[a+b] == nil {
						partial[a+b] = term
					} else {
						partial[a+b] = pk.Add(partial[a+b], term)
					}
				}
			}
		}
		stats.Send(i, int64(len(partial))*ctSize*int64(k-1))
		for d, c := range partial {
			if c == nil {
				continue
			}
			if acc[d] == nil {
				acc[d] = c
			} else {
				acc[d] = pk.Add(acc[d], c)
			}
		}
	}
	for d, c := range acc {
		if c == nil {
			z, err := pk.EncryptZero(rng)
			if err != nil {
				return nil, err
			}
			acc[d] = z
		}
	}

	// Last party evaluates, blinds, shuffles, returns to the leader.
	evaluator := k - 1
	evals := make([]*big.Int, 0, len(hashed[evaluator]))
	for _, a := range hashed[evaluator] {
		// Horner: acc_high … acc_low.
		v := acc[len(acc)-1]
		for j := len(acc) - 2; j >= 0; j-- {
			v = pk.Add(pk.MulConst(v, a), acc[j])
		}
		s, err := randomUnitScalar(rng, blindMax)
		if err != nil {
			return nil, err
		}
		v = pk.MulConst(v, s)
		z, err := pk.EncryptZero(rng)
		if err != nil {
			return nil, err
		}
		evals = append(evals, pk.Add(v, z))
	}
	shuffler.Shuffle(len(evals), func(a, b int) { evals[a], evals[b] = evals[b], evals[a] })
	stats.Send(evaluator, int64(len(evals))*ctSize)

	// Leader decrypts and counts zeros.
	inter := 0
	for _, c := range evals {
		m, err := sk.Decrypt(c)
		if err != nil {
			return nil, err
		}
		if m.Sign() == 0 {
			inter++
		}
	}
	return &psi.Result{Intersection: inter, Union: -1, Stats: stats}, nil
}

// dedupe returns the distinct elements of a set, sorted.
func dedupe(set []string) []string {
	seen := make(map[string]struct{}, len(set))
	out := make([]string, 0, len(set))
	for _, e := range set {
		if _, ok := seen[e]; ok {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// hashElement64 maps an element to a 64-bit non-zero integer.
func hashElement64(e string) *big.Int {
	sum := sha256.Sum256([]byte(e))
	v := binary.BigEndian.Uint64(sum[:8])
	if v == 0 {
		v = 1
	}
	return new(big.Int).SetUint64(v)
}

// polyFromRoots builds Π (x − r) mod n, coefficients low to high.
func polyFromRoots(roots []*big.Int, n *big.Int) []*big.Int {
	coeffs := []*big.Int{big.NewInt(1)}
	for _, r := range roots {
		negR := new(big.Int).Neg(r)
		negR.Mod(negR, n)
		next := make([]*big.Int, len(coeffs)+1)
		for i := range next {
			next[i] = big.NewInt(0)
		}
		for i, c := range coeffs {
			// (x)·c term
			next[i+1].Add(next[i+1], c)
			// (−r)·c term
			tmp := new(big.Int).Mul(c, negR)
			next[i].Add(next[i], tmp)
		}
		for i := range next {
			next[i].Mod(next[i], n)
		}
		coeffs = next
	}
	return coeffs
}

// randomPoly draws a degree-deg polynomial with coefficients in [0, max).
func randomPoly(rng io.Reader, deg int, max *big.Int) ([]*big.Int, error) {
	out := make([]*big.Int, deg+1)
	for i := range out {
		c, err := cryptorand.Int(rng, max)
		if err != nil {
			return nil, fmt.Errorf("ks: drawing polynomial coefficient: %w", err)
		}
		out[i] = c
	}
	// Ensure the leading coefficient is non-zero so deg(f·r) = 2n.
	if out[deg].Sign() == 0 {
		out[deg] = big.NewInt(1)
	}
	return out, nil
}

// polyMul multiplies two coefficient vectors mod n.
func polyMul(a, b []*big.Int, n *big.Int) []*big.Int {
	out := make([]*big.Int, len(a)+len(b)-1)
	for i := range out {
		out[i] = big.NewInt(0)
	}
	tmp := new(big.Int)
	for i, ai := range a {
		if ai.Sign() == 0 {
			continue
		}
		for j, bj := range b {
			tmp.Mul(ai, bj)
			out[i+j].Add(out[i+j], tmp)
			out[i+j].Mod(out[i+j], n)
		}
	}
	return out
}

func randomUnitScalar(rng io.Reader, n *big.Int) (*big.Int, error) {
	for {
		s, err := cryptorand.Int(rng, n)
		if err != nil {
			return nil, fmt.Errorf("ks: drawing blinding scalar: %w", err)
		}
		if s.Sign() != 0 {
			return s, nil
		}
	}
}
