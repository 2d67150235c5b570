package riskgroup

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"indaas/internal/faultgraph"
	"indaas/internal/telemetry"
)

// Sampler implements the failure sampling algorithm of §4.1.2: each round
// assigns random failures to basic events (fair coin flips by default),
// propagates them bottom-up, and, when the top event fails, records the
// failed basic events as an RG.
//
// The algorithm runs in time linear in the graph size per round and cannot
// guarantee its RGs are minimal. With Shrink enabled each failing sample is
// greedily reduced to an irreducible — hence minimal — RG, in its own random
// order, before aggregation, which is how "% of minimal RGs detected"
// (Fig. 7) is measured.
//
// Rounds run 64 at a time, one per bit of a machine word: every event holds
// one uint64 per 64-round block, AND and OR gates are word operations and a
// K-of-N gate counts failed children in "at least j failed" planes. Block b
// draws all of its randomness from one SplitMix64 stream derived from
// (Seed, b), so the detected family is a function of the graph, Rounds, the
// failure probabilities, Shrink and Seed alone — on any machine, for any
// Workers — and growing Rounds only adds rounds to it.
type Sampler struct {
	// Rounds is the number of sampling rounds (paper: 10³–10⁷).
	Rounds int
	// Bias is the per-event failure probability of the coin flip.
	// 0 means the default fair coin (0.5).
	Bias float64
	// UseEventProbs flips each basic event with its own failure probability
	// instead of Bias (ablation; requires probabilities on all events).
	UseEventProbs bool
	// Shrink greedily minimizes each failing sample.
	Shrink bool
	// Seed seeds the random streams. Seed==0 means the fixed default seed 1
	// — the zero value samples reproducibly, it does not randomize.
	Seed int64
	// Workers is how many goroutines share the blocks of 64 rounds. It
	// changes speed only, never the detected family. 0 (or any negative
	// value) means runtime.GOMAXPROCS(0); any request is clamped to
	// GOMAXPROCS and to the number of blocks.
	Workers int
}

// Sample runs the sampler on g and returns the deduplicated family of
// detected RGs, sorted by size then lexicographically. With Shrink every
// member is irreducible, so the family is a family of minimal RGs.
func (s Sampler) Sample(g *faultgraph.Graph) ([]RG, error) {
	return s.SampleContext(context.Background(), g)
}

// SampleContext is Sample under a context. Every worker goroutine polls the
// context once per block of 64 rounds: on cancellation all workers exit
// promptly (typically within a millisecond of sampling work), their partial
// families are discarded, and the call returns ctx.Err() with a nil family.
// Cancellation observed only after every round completed still reports
// ctx.Err(), matching the usual Go convention that a canceled call never
// returns a result.
func (s Sampler) SampleContext(ctx context.Context, g *faultgraph.Graph) ([]RG, error) {
	if s.Rounds <= 0 {
		return nil, fmt.Errorf("riskgroup: Sampler.Rounds must be positive, got %d", s.Rounds)
	}
	bias := s.Bias
	if bias == 0 {
		bias = 0.5
	}
	if bias < 0 || bias > 1 {
		return nil, fmt.Errorf("riskgroup: Sampler.Bias %v out of [0,1]", bias)
	}
	thr := make([]uint64, g.NumBasics())
	for r := range thr {
		p := bias
		if s.UseEventProbs {
			n := g.Node(g.BasicAt(r))
			if !n.HasProb() {
				return nil, fmt.Errorf("riskgroup: UseEventProbs set but event %q has no probability", n.Label)
			}
			p = n.Prob
		}
		thr[r] = uint64(math.Round(p * (1 << 32)))
	}
	k := newWordKernel(g, thr, s.Shrink, s.Seed)
	blocks := (s.Rounds + 63) / 64
	workers := runtime.GOMAXPROCS(0)
	if s.Workers > 0 {
		workers = min(workers, s.Workers)
	}
	workers = min(workers, blocks)

	tr := telemetry.FromContext(ctx)
	defer tr.Start("sampling")()

	// Worker w takes blocks w, w+workers, …; the family is the union of
	// every block's lanes, so how blocks are striped cannot change it.
	found := make([]*rgSet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := k.newWorker()
			for b := w; b < blocks; b += workers {
				if ctx.Err() != nil {
					return
				}
				active := ^uint64(0)
				if rest := s.Rounds - 64*b; rest < 64 {
					active = 1<<rest - 1
				}
				ws.block(b, active)
			}
			found[w] = ws.seen
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, set := range found[1:] {
		found[0].union(set)
	}
	out := found[0].family(k.basics)
	sortFamily(out)
	tr.Add("rounds_sampled", int64(s.Rounds))
	tr.Add("rgs_found", int64(len(out)))
	return out, nil
}

// wordGate is one gate of the compiled graph: node id fails in the lanes
// where at least k of kids[lo:hi] fail.
type wordGate struct {
	id, k, lo, hi int32
}

// wordKernel is a graph compiled for 64-lane evaluation, shared read-only
// by the workers of one Sample call.
type wordKernel struct {
	nodes  int
	top    faultgraph.NodeID
	basics []faultgraph.NodeID // by basic rank
	// thr[r] is basic r's failure probability in 32-bit fixed point:
	// 0 never fails, 1<<32 always does.
	thr    []uint64
	gates  []wordGate // children before parents
	kids   []int32
	maxK   int
	shrink bool
	seed   uint64
}

func newWordKernel(g *faultgraph.Graph, thr []uint64, shrink bool, seed int64) *wordKernel {
	if seed == 0 {
		seed = 1
	}
	k := &wordKernel{
		nodes:  g.Len(),
		top:    g.Top(),
		basics: g.BasicEvents(),
		thr:    thr,
		shrink: shrink,
		seed:   splitmix64(uint64(seed) ^ samplerSalt),
	}
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		if n.Gate == faultgraph.Basic {
			continue
		}
		lo := int32(len(k.kids))
		for _, c := range n.Children {
			k.kids = append(k.kids, int32(c))
		}
		k.gates = append(k.gates, wordGate{id: int32(id), k: int32(n.K), lo: lo, hi: int32(len(k.kids))})
		k.maxK = max(k.maxK, n.K)
	}
	return k
}

// samplerSalt separates the sampler's streams from other SplitMix64 users
// of the same seed.
const samplerSalt = 0x73616d706c657273 // "samplers"

// splitmix64 is the SplitMix64 output function applied to x + γ.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// wordWorker is one goroutine's mutable state: a word per node, the K-of-N
// planes, the per-lane shrink orders and the RGs found so far.
type wordWorker struct {
	*wordKernel
	st     []uint64 // failure lanes by node id
	planes []uint64
	rng    uint64
	cand   []int32 // lane l's shrink order in cand[l*nb : l*nb+clen[l]], basic ranks
	clen   [64]int
	keys   []uint64 // lane l's RG bitset in keys[l*nw : (l+1)*nw]
	seen   *rgSet
}

func (k *wordKernel) newWorker() *wordWorker {
	nb := len(k.basics)
	nw := max(1, (nb+63)/64)
	w := &wordWorker{
		wordKernel: k,
		st:         make([]uint64, k.nodes),
		planes:     make([]uint64, k.maxK),
		keys:       make([]uint64, 64*nw),
		seen:       newRGSet(nw),
	}
	if k.shrink {
		w.cand = make([]int32, 64*nb)
	}
	return w
}

func (w *wordWorker) next() uint64 {
	x := w.rng
	w.rng += 0x9e3779b97f4a7c15
	return splitmix64(x)
}

// flip draws a word whose bits are independent Bernoulli(thr/2³²) coins:
// folding fresh random words in with OR for a 1 bit of the threshold and
// AND for a 0 bit, least significant first, halves the probability and adds
// the bit's weight at each step. A fair coin is one word.
func (w *wordWorker) flip(thr uint64) uint64 {
	if thr == 0 {
		return 0
	}
	if thr >= 1<<32 {
		return ^uint64(0)
	}
	var x uint64
	for b := bits.TrailingZeros64(thr); b < 32; b++ {
		if thr>>b&1 != 0 {
			x |= w.next()
		} else {
			x &= w.next()
		}
	}
	return x
}

// eval propagates the basic events' lanes through every gate and returns
// the top event's lanes.
func (w *wordWorker) eval() uint64 {
	st := w.st
	for _, g := range w.gates {
		kids := w.kids[g.lo:g.hi]
		var x uint64
		switch int(g.k) {
		case 1:
			for _, c := range kids {
				x |= st[c]
			}
		case len(kids):
			x = ^uint64(0)
			for _, c := range kids {
				x &= st[c]
			}
		default:
			// planes[j] holds the lanes where more than j children failed.
			p := w.planes[:g.k]
			clear(p)
			for _, c := range kids {
				f := st[c]
				for j := len(p) - 1; j > 0; j-- {
					p[j] |= p[j-1] & f
				}
				p[0] |= f
			}
			x = p[len(p)-1]
		}
		st[g.id] = x
	}
	return st[w.top]
}

// block samples the rounds of block b whose lanes are set in active.
func (w *wordWorker) block(b int, active uint64) {
	w.rng = splitmix64(w.seed + uint64(b))
	for r, id := range w.basics {
		w.st[id] = w.flip(w.thr[r])
	}
	failed := w.eval() & active
	if failed == 0 {
		return
	}
	if w.shrink {
		w.shrinkLanes(failed)
	}
	w.collect(failed)
}

// shrinkLanes reduces every failing lane to an irreducible RG. Each lane
// removes its own failed events in its own random order (an order shared by
// the block finds far fewer distinct minimal RGs): step t drops every lane's
// t-th candidate at once, evaluates the graph once, and puts the candidate
// back in the lanes whose top event stopped failing.
func (w *wordWorker) shrinkLanes(failed uint64) {
	nb := len(w.basics)
	for m := failed; m != 0; m &= m - 1 {
		w.clen[bits.TrailingZeros64(m)] = 0
	}
	for r, id := range w.basics {
		for m := w.st[id] & failed; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w.cand[l*nb+w.clen[l]] = int32(r)
			w.clen[l]++
		}
	}
	steps := 0
	for m := failed; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		order := w.cand[l*nb : l*nb+w.clen[l]]
		for i := len(order) - 1; i > 0; i-- {
			j, _ := bits.Mul64(w.next(), uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		steps = max(steps, len(order))
	}
	pending := failed
	for t := 0; t < steps; t++ {
		var step uint64
		for m := pending; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if t >= w.clen[l] {
				pending &^= 1 << l
				continue
			}
			w.st[w.basics[w.cand[l*nb+t]]] &^= 1 << l
			step |= 1 << l
		}
		for m := step &^ w.eval(); m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w.st[w.basics[w.cand[l*nb+t]]] |= 1 << l
		}
	}
}

// collect records the failed basic events of every lane in lanes as an RG.
func (w *wordWorker) collect(lanes uint64) {
	nw := w.seen.nw
	for m := lanes; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		clear(w.keys[l*nw : (l+1)*nw])
	}
	for r, id := range w.basics {
		for m := w.st[id] & lanes; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w.keys[l*nw+r>>6] |= 1 << (r & 63)
		}
	}
	for m := lanes; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		w.seen.add(w.keys[l*nw : (l+1)*nw])
	}
}

// rgSet deduplicates RGs by their basic-rank bitset: one uint64 key when
// the graph has at most 64 basic events, the bitset's bytes otherwise.
type rgSet struct {
	nw   int
	one  map[uint64]struct{}
	many map[string]struct{}
	buf  []byte
}

func newRGSet(nw int) *rgSet {
	if nw == 1 {
		return &rgSet{nw: 1, one: make(map[uint64]struct{})}
	}
	return &rgSet{nw: nw, many: make(map[string]struct{})}
}

func (s *rgSet) add(words []uint64) {
	if s.one != nil {
		s.one[words[0]] = struct{}{}
		return
	}
	s.buf = s.buf[:0]
	for _, x := range words {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, x)
	}
	if _, ok := s.many[string(s.buf)]; !ok { // no allocation: key lookup only
		s.many[string(s.buf)] = struct{}{}
	}
}

func (s *rgSet) union(o *rgSet) {
	for k := range o.one {
		s.one[k] = struct{}{}
	}
	for k := range o.many {
		s.many[k] = struct{}{}
	}
}

// family converts the set to RGs of basic event IDs, ascending because
// basic ranks follow ID order.
func (s *rgSet) family(basics []faultgraph.NodeID) []RG {
	var out []RG
	words := make([]uint64, s.nw)
	emit := func() {
		n := 0
		for _, x := range words {
			n += bits.OnesCount64(x)
		}
		rg := make(RG, 0, n)
		for wi, x := range words {
			for ; x != 0; x &= x - 1 {
				rg = append(rg, basics[wi<<6+bits.TrailingZeros64(x)])
			}
		}
		out = append(out, rg)
	}
	for k := range s.one {
		words[0] = k
		emit()
	}
	for k := range s.many {
		for i := range words {
			words[i] = 0
			for j := 7; j >= 0; j-- {
				words[i] = words[i]<<8 | uint64(k[8*i+j])
			}
		}
		emit()
	}
	return out
}

// DetectionRate reports what fraction of the reference minimal RGs appear in
// the detected family (Fig. 7's y-axis). Both families should be families of
// minimal RGs (use Shrink when sampling). Nil or empty families are fine:
// an empty reference counts as fully detected, an empty detected family
// scores zero without allocating.
func DetectionRate(reference, detected []RG) float64 {
	if len(reference) == 0 {
		return 1
	}
	if len(detected) == 0 {
		return 0
	}
	idx := make(map[string]struct{}, len(detected))
	for _, rg := range detected {
		idx[rg.key()] = struct{}{}
	}
	hit := 0
	for _, rg := range reference {
		if _, ok := idx[rg.key()]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(reference))
}
