package bitset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // three words
	if len(s) != 3 {
		t.Fatalf("Words(130) = %d, want 3", len(s))
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
		if !s.Has(i) {
			t.Errorf("Has(%d) false after Set", i)
		}
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
	if s.First() != 0 {
		t.Errorf("First = %d, want 0", s.First())
	}
	s.Clear(0)
	if s.Has(0) || s.Count() != 4 || s.First() != 63 {
		t.Error("Clear(0) misbehaved")
	}
	if got := s.AppendIndices(nil); !reflect.DeepEqual(got, []int{63, 64, 127, 129}) {
		t.Errorf("AppendIndices = %v", got)
	}
	s.Reset()
	if s.Count() != 0 || s.First() != -1 {
		t.Error("Reset left members behind")
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b, u := New(100), New(100), New(100)
	a.Set(1)
	a.Set(70)
	b.Set(2)
	b.Set(70)
	u.OrOf(a, b)
	if got := u.AppendIndices(nil); !reflect.DeepEqual(got, []int{1, 2, 70}) {
		t.Errorf("OrOf = %v", got)
	}
	if !a.SubsetOf(u) || !b.SubsetOf(u) || u.SubsetOf(a) {
		t.Error("SubsetOf wrong")
	}
	c := New(100)
	c.CopyFrom(a)
	if !c.Equal(a) || c.Equal(b) {
		t.Error("CopyFrom/Equal wrong")
	}
	c.Or(b)
	if !c.Equal(u) {
		t.Error("Or wrong")
	}
	if a.Hash() == b.Hash() && !a.Equal(b) {
		t.Error("distinct small sets collided (FNV should separate these)")
	}
}

// TestLessMatchesSliceOrder: for equal-cardinality sets, Less must equal
// lexicographic order over sorted member slices — the family order the RG
// code relies on — and Compare must be the same order, three-way.
func TestLessMatchesSliceOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(6)
		mk := func() ([]int, Set) {
			m := map[int]bool{}
			for len(m) < n {
				m[r.Intn(150)] = true
			}
			var xs []int
			s := New(150)
			for x := range m {
				xs = append(xs, x)
				s.Set(x)
			}
			sort.Ints(xs)
			return xs, s
		}
		xa, sa := mk()
		xb, sb := mk()
		want, cmp := false, 0
		for i := range xa {
			if xa[i] != xb[i] {
				want, cmp = xa[i] < xb[i], 1
				if want {
					cmp = -1
				}
				break
			}
		}
		if got := sa.Less(sb); got != want {
			t.Fatalf("Less(%v, %v) = %v, want %v", xa, xb, got, want)
		}
		if got := sa.Compare(sb); got != cmp {
			t.Fatalf("Compare(%v, %v) = %d, want %d", xa, xb, got, cmp)
		}
		if got := sa.Compare(sa); got != 0 {
			t.Fatalf("Compare(%v, itself) = %d, want 0", xa, got)
		}
	}
}

func TestSubsetOfRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		a, b := New(200), New(200)
		for i := 0; i < 200; i++ {
			if r.Intn(3) == 0 {
				b.Set(i)
				if r.Intn(2) == 0 {
					a.Set(i)
				}
			}
		}
		if !a.SubsetOf(b) {
			t.Fatal("constructed subset rejected")
		}
		// Adding one element outside b must break the subset relation.
		for i := 0; i < 200; i++ {
			if !b.Has(i) {
				a.Set(i)
				if a.SubsetOf(b) {
					t.Fatal("superset accepted")
				}
				break
			}
		}
	}
}
