// Package bitset provides the dense fixed-width bitsets backing the SIA hot
// path: risk groups are sets of small dense integers (basic-event ranks), so
// set algebra — union, subset tests, dedup hashing, canonical ordering —
// compiles down to a handful of word operations instead of sorted-slice
// merges and string map keys.
package bitset

import "math/bits"

// Set is a fixed-width bitset. All binary operations require both operands
// to have the same word length (sets built over the same universe).
type Set []uint64

// Words returns the number of uint64 words needed for a universe of width
// indices.
func Words(width int) int { return (width + 63) / 64 }

// New returns an empty set over a universe of width indices.
func New(width int) Set { return make(Set, Words(width)) }

// Set marks index i as a member.
func (s Set) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes index i.
func (s Set) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether index i is a member.
func (s Set) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Reset empties the set in place.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// CopyFrom overwrites s with o.
func (s Set) CopyFrom(o Set) { copy(s, o) }

// Or unions o into s.
func (s Set) Or(o Set) {
	for i, w := range o {
		s[i] |= w
	}
}

// OrOf overwrites s with a ∪ b.
func (s Set) OrOf(a, b Set) {
	for i := range s {
		s[i] = a[i] | b[i]
	}
}

// Count returns the number of members (popcount).
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// SubsetOf reports whether s ⊆ o.
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o hold exactly the same members.
func (s Set) Equal(o Set) bool {
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit FNV-1a hash over the words, for dedup maps keyed by
// set value without a per-set string allocation.
func (s Set) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range s {
		for b := 0; b < 64; b += 8 {
			h ^= (w >> uint(b)) & 0xff
			h *= prime64
		}
	}
	return h
}

// Less orders equal-width sets by their lowest differing index: the set
// owning the smallest member of the symmetric difference sorts first. For
// sets of equal cardinality this coincides with lexicographic order over the
// sorted member sequences, which is the family order the slice-based RG
// implementation used.
func (s Set) Less(o Set) bool { return s.Compare(o) < 0 }

// Compare is Less as a three-way comparison: -1 when s sorts before o, 1
// when after, 0 when they are equal.
func (s Set) Compare(o Set) int {
	for i, w := range s {
		if d := w ^ o[i]; d != 0 {
			if w&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// First returns the smallest member, or -1 if the set is empty.
func (s Set) First() int {
	for i, w := range s {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AppendIndices appends the members in ascending order to dst.
func (s Set) AppendIndices(dst []int) []int {
	for i, w := range s {
		base := i << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
