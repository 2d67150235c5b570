package ks

import (
	"math/big"
	"testing"
	"testing/quick"
)

// evalPoly evaluates a coefficient vector (low to high) at x, mod n.
func evalPoly(coeffs []*big.Int, x, n *big.Int) *big.Int {
	acc := big.NewInt(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, coeffs[i])
		acc.Mod(acc, n)
	}
	return acc
}

func TestPolyFromRootsVanishesAtRoots(t *testing.T) {
	n := big.NewInt(1_000_003) // prime modulus for the test field
	f := func(rootVals []uint16, probe uint16) bool {
		if len(rootVals) == 0 || len(rootVals) > 8 {
			return true
		}
		roots := make([]*big.Int, len(rootVals))
		isRoot := map[uint64]bool{}
		for i, r := range rootVals {
			roots[i] = new(big.Int).SetUint64(uint64(r))
			isRoot[uint64(r)] = true
		}
		coeffs := polyFromRoots(roots, n)
		if len(coeffs) != len(roots)+1 {
			return false
		}
		for _, r := range roots {
			if evalPoly(coeffs, r, n).Sign() != 0 {
				return false
			}
		}
		// A non-root probe should (generically) not vanish.
		if !isRoot[uint64(probe)] {
			p := new(big.Int).SetUint64(uint64(probe))
			if evalPoly(coeffs, p, n).Sign() == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPolyMulMatchesEvaluation(t *testing.T) {
	n := big.NewInt(1_000_003)
	a := []*big.Int{big.NewInt(3), big.NewInt(0), big.NewInt(2)} // 2x²+3
	b := []*big.Int{big.NewInt(1), big.NewInt(5)}                // 5x+1
	prod := polyMul(a, b, n)
	if len(prod) != 4 {
		t.Fatalf("product degree: len = %d", len(prod))
	}
	for _, x := range []int64{0, 1, 2, 17, 999} {
		xx := big.NewInt(x)
		va := evalPoly(a, xx, n)
		vb := evalPoly(b, xx, n)
		want := new(big.Int).Mul(va, vb)
		want.Mod(want, n)
		if got := evalPoly(prod, xx, n); got.Cmp(want) != 0 {
			t.Errorf("at x=%d: product eval %v, want %v", x, got, want)
		}
	}
}

func TestHashElement64NonZeroDeterministic(t *testing.T) {
	a := hashElement64("component-a")
	b := hashElement64("component-a")
	c := hashElement64("component-b")
	if a.Cmp(b) != 0 {
		t.Error("hash not deterministic")
	}
	if a.Cmp(c) == 0 {
		t.Error("distinct elements collided")
	}
	if a.Sign() == 0 {
		t.Error("hash may not be zero")
	}
}
