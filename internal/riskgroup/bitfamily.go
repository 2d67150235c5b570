package riskgroup

import (
	"context"
	mbits "math/bits"
	"slices"

	"indaas/internal/bitset"
	"indaas/internal/faultgraph"
)

func trailingZeros64(w uint64) int { return mbits.TrailingZeros64(w) }

// brg is a risk group in dense form: a bitset over basic-event ranks (or raw
// node IDs for graphless minimization) plus its cached cardinality. All brgs
// of one computation share a word width.
type brg struct {
	w bitset.Set
	n int
}

// minCtx holds the scratch state of one bitset RG computation: a word arena
// so product sets are carved out of large slabs instead of allocated
// individually, a hash-keyed dedup index, and witness postings for
// absorption. One context is reused across every minimize/product call of a
// MinimalRGs run.
type minCtx struct {
	words    int
	arena    []uint64
	slab     int // current slab size in words; doubles per refill
	scratch  bitset.Set
	probe    bitset.Set // the set currently tested by a dedup eq closure
	dedup    dedupTable
	postings [][]int32 // witness index → kept positions (absorption)
	touched  []int32   // witness indices to clear after a minimize

	// cctx, when non-nil, is polled every pollInterval set operations so
	// fat-tree-scale products and absorption passes stay cancellable;
	// cancelErr latches the first observed ctx error so every later poll
	// bails without re-asking the context.
	cctx      context.Context
	steps     uint32
	cancelErr error
}

// pollInterval is how many set operations pass between context polls: large
// enough that the mutex inside context.Err stays off the profile, small
// enough (~a few hundred µs of work) that cancellation lands promptly.
const pollInterval = 4096

// poll reports whether the computation is canceled, checking the context
// once every pollInterval calls.
func (c *minCtx) poll() bool {
	if c.cancelErr != nil {
		return true
	}
	if c.cctx == nil {
		return false
	}
	c.steps++
	if c.steps%pollInterval != 0 {
		return false
	}
	if err := c.cctx.Err(); err != nil {
		c.cancelErr = err
		return true
	}
	return false
}

func newMinCtx(width int) *minCtx {
	return &minCtx{
		words:    bitset.Words(width),
		slab:     128,
		scratch:  bitset.New(width),
		postings: make([][]int32, width),
	}
}

// dedupTable is an open-addressed hash index over family positions,
// replacing a map[hash][]index whose per-bucket slices dominated the
// allocation profile of large products. Slots hold position+1 (0 = empty)
// and the table is reused — cleared, not reallocated — across the thousands
// of minimize/product calls of one MinimalRGs run.
type dedupTable struct {
	slots []int32
	n     int
}

// reset prepares the table for about capHint insertions.
func (d *dedupTable) reset(capHint int) {
	want := 64
	for want < 2*capHint {
		want <<= 1
	}
	if len(d.slots) < want || len(d.slots) > 8*want {
		d.slots = make([]int32, want)
	} else {
		for i := range d.slots {
			d.slots[i] = 0
		}
	}
	d.n = 0
}

func (d *dedupTable) place(h uint64, v int32) {
	mask := uint64(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if d.slots[i] == 0 {
			d.slots[i] = v
			return
		}
	}
}

func (d *dedupTable) grow(hashOf func(int32) uint64) {
	old := d.slots
	d.slots = make([]int32, 2*len(old))
	for _, v := range old {
		if v != 0 {
			d.place(hashOf(v-1), v)
		}
	}
}

// lookupOrInsert reports whether a position equal (per eq) to the probed set
// already exists; if not, it files idx under hash h. hashOf recomputes the
// hash of a stored position, needed when the table grows.
func (d *dedupTable) lookupOrInsert(h uint64, idx int32, eq func(int32) bool, hashOf func(int32) uint64) bool {
	mask := uint64(len(d.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := d.slots[i]
		if v == 0 {
			if 4*(d.n+1) > 3*len(d.slots) {
				d.grow(hashOf)
				d.place(h, idx+1)
			} else {
				d.slots[i] = idx + 1
			}
			d.n++
			return false
		}
		if eq(v - 1) {
			return true
		}
	}
}

// alloc carves a zeroed set of the context's width out of the arena. Slabs
// double per refill (1KB up to 512KB) so small audits stay light while
// fat-tree products amortize to one allocation per thousands of sets.
func (c *minCtx) alloc() bitset.Set {
	if len(c.arena) < c.words {
		if c.slab < 1<<16 {
			c.slab *= 2
		}
		n := c.slab
		if n < c.words {
			n = c.words
		}
		c.arena = make([]uint64, n)
	}
	s := bitset.Set(c.arena[:c.words:c.words])
	c.arena = c.arena[c.words:]
	return s
}

// sortBrgs orders a family by cardinality, then by lowest differing member —
// exactly the size-then-lexicographic order of the slice representation.
func sortBrgs(fam []brg) {
	slices.SortFunc(fam, func(a, b brg) int {
		if a.n != b.n {
			return a.n - b.n
		}
		return a.w.Compare(b.w)
	})
}

// minimize removes duplicates and non-minimal sets by absorption: any set
// that is a superset of another kept set is dropped. Runs in place over
// fam's backing array; the result is sorted by size then lexicographically.
//
// Absorption uses witness postings: a kept set t can only absorb a candidate
// s if t ⊆ s, which requires t's smallest member (its witness) to appear in
// s. Each kept set is filed under its witness alone, so candidates scan just
// the kept sets witnessed by their own members and confirm with a word-wise
// subset test. Postings are published one size class at a time: only
// strictly smaller sets can absorb (equal-size absorbers would be
// duplicates, removed up front), so candidates within a class skip each
// other entirely.
func (c *minCtx) minimize(fam []brg) []brg {
	if len(fam) == 0 {
		return nil
	}
	c.dedup.reset(len(fam))
	uniq := fam[:0]
	eq := func(i int32) bool { return uniq[i].w.Equal(c.probe) }
	hashOf := func(i int32) uint64 { return uniq[i].w.Hash() }
	for _, s := range fam {
		c.probe = s.w
		if c.dedup.lookupOrInsert(s.w.Hash(), int32(len(uniq)), eq, hashOf) {
			continue
		}
		uniq = append(uniq, s)
	}
	sortBrgs(uniq)
	kept := uniq[:0]
	classStart := 0 // first kept index not yet published to postings
	prevSize := -1
	publish := func(upto int) {
		for i := classStart; i < upto; i++ {
			w := kept[i].w.First()
			if w < 0 {
				continue // the empty set files no witness
			}
			if len(c.postings[w]) == 0 {
				c.touched = append(c.touched, int32(w))
			}
			c.postings[w] = append(c.postings[w], int32(i))
		}
		classStart = upto
	}
	for _, s := range uniq {
		if c.poll() {
			break // canceled: caller sees cancelErr, partial result is discarded
		}
		if s.n != prevSize {
			publish(len(kept))
			prevSize = s.n
		}
		absorbed := false
	scan:
		for wi, w := range s.w {
			base := wi << 6
			for w != 0 {
				e := base + trailingZeros64(w)
				w &= w - 1
				for _, ti := range c.postings[e] {
					if kept[ti].w.SubsetOf(s.w) {
						absorbed = true
						break scan
					}
				}
			}
		}
		if !absorbed {
			kept = append(kept, s)
		}
	}
	for _, w := range c.touched {
		c.postings[w] = c.postings[w][:0]
	}
	c.touched = c.touched[:0]
	return kept
}

// graphIndexer maps RGs between node-ID space and bit-index space.
type graphIndexer struct{ g *faultgraph.Graph }

// width returns the bit-universe size: basic ranks with a graph, raw node
// IDs without one (graphless Minimize).
func (ix graphIndexer) width(sets []RG) int {
	if ix.g != nil {
		return ix.g.NumBasics()
	}
	w := 0
	for _, s := range sets {
		for _, id := range s {
			if int(id)+1 > w {
				w = int(id) + 1
			}
		}
	}
	return w
}

func (ix graphIndexer) bitOf(id faultgraph.NodeID) int {
	if ix.g != nil {
		return ix.g.BasicRank(id)
	}
	return int(id)
}

func (ix graphIndexer) idOf(bit int) faultgraph.NodeID {
	if ix.g != nil {
		return ix.g.BasicAt(bit)
	}
	return faultgraph.NodeID(bit)
}

// toBrg converts an RG into the context's dense form.
func (c *minCtx) toBrg(ix graphIndexer, s RG) brg {
	w := c.alloc()
	for _, id := range s {
		w.Set(ix.bitOf(id))
	}
	return brg{w: w, n: w.Count()}
}

// toRG expands a dense set back into a sorted RG. Bit order follows
// ascending node ID in both index spaces, so the members come out sorted.
func (ix graphIndexer) toRG(s brg) RG {
	out := make(RG, 0, s.n)
	for wi, w := range s.w {
		base := wi << 6
		for w != 0 {
			out = append(out, ix.idOf(base+trailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

func (ix graphIndexer) toFamily(fam []brg) []RG {
	if len(fam) == 0 {
		return nil
	}
	out := make([]RG, len(fam))
	for i, s := range fam {
		out[i] = ix.toRG(s)
	}
	return out
}
