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
//
// Shrinking runs in full words too. Only some of a block's lanes fail, so
// each worker gathers the failing lanes of successive blocks, each with the
// shrink order its block's stream drew for it, into one shrink word, and
// shrinks all 64 of them together — one graph evaluation per removal step
// for the whole word — whenever the word is full and once at the end of the
// worker's blocks. Lanes shrink independently, so where a sample lands in
// the word never changes its RG.
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
	thr, err := s.thresholds(g)
	if err != nil {
		return nil, err
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
			if ws.held != 0 {
				ws.flush()
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

// thresholds returns every basic event's failure probability, by basic
// rank, in 32-bit fixed point: 0 never fails, 1<<32 always does. A
// probability outside [0,1] — NaN included — is an error naming it.
func (s Sampler) thresholds(g *faultgraph.Graph) ([]uint64, error) {
	bias := s.Bias
	if bias == 0 {
		bias = 0.5
	}
	if !(bias >= 0 && bias <= 1) {
		return nil, fmt.Errorf("riskgroup: Sampler.Bias %v out of [0,1]", bias)
	}
	thr := make([]uint64, g.NumBasics())
	for r := range thr {
		p := bias
		if s.UseEventProbs {
			n := g.Node(g.BasicAt(r))
			switch p = n.Prob; {
			case p == faultgraph.ProbUnknown:
				return nil, fmt.Errorf("riskgroup: UseEventProbs set but event %q has no probability", n.Label)
			case !(p >= 0 && p <= 1):
				return nil, fmt.Errorf("riskgroup: event %q has probability %v, out of [0,1]", n.Label, p)
			}
		}
		thr[r] = uint64(math.Round(p * (1 << 32)))
	}
	return thr, nil
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

// wordWorker is one goroutine's mutable state: the block being sampled, the
// shrink word, the K-of-N planes and the RGs found so far.
type wordWorker struct {
	*wordKernel
	blk    *lanes // the block being sampled
	word   *lanes // the shrink word: failing lanes gathered across blocks
	held   uint64 // the shrink word's occupied lanes; no event fails in the others
	planes []uint64
	rng    uint64
	keys   []uint64 // lane l's RG bitset in keys[l*nw : (l+1)*nw]
	seen   *rgSet
}

// lanes is 64 samples side by side: a failure word per node and, with
// Shrink, each lane's shrink order.
type lanes struct {
	st   []uint64  // failure lanes by node id
	cand []int32   // lane l's t-th shrink candidate, a node id, in cand[t<<6|l]
	n    [64]int32 // lane l's candidate count
}

func (k *wordKernel) newLanes() *lanes {
	x := &lanes{st: make([]uint64, k.nodes)}
	if k.shrink {
		x.cand = make([]int32, 64*len(k.basics))
	}
	return x
}

func (k *wordKernel) newWorker() *wordWorker {
	nw := max(1, (len(k.basics)+63)/64)
	w := &wordWorker{
		wordKernel: k,
		blk:        k.newLanes(),
		planes:     make([]uint64, k.maxK),
		keys:       make([]uint64, 64*nw),
		seen:       newRGSet(nw),
	}
	if k.shrink {
		w.word = k.newLanes()
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

// eval propagates the basic events' lanes in st through every gate and
// returns the top event's lanes.
func (w *wordWorker) eval(st []uint64) uint64 {
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

// block samples the rounds of block b whose lanes are set in active. With
// Shrink its failing lanes go to the shrink word; without, they are
// collected as they are.
func (w *wordWorker) block(b int, active uint64) {
	w.rng = splitmix64(w.seed + uint64(b))
	st := w.blk.st
	for r, id := range w.basics {
		st[id] = w.flip(w.thr[r])
	}
	failed := w.eval(st) & active
	if failed == 0 {
		return
	}
	if !w.shrink {
		w.collect(st, failed)
		return
	}
	w.orders(failed)
	w.gather(failed)
}

// orders draws the shrink order of every failing lane of the block: its
// failed events, shuffled from the block's stream in ascending lane order.
// Each lane removes its events in its own random order (an order shared by
// the block finds far fewer distinct minimal RGs).
func (w *wordWorker) orders(failed uint64) {
	x := w.blk
	for m := failed; m != 0; m &= m - 1 {
		x.n[bits.TrailingZeros64(m)] = 0
	}
	for _, id := range w.basics {
		for m := x.st[id] & failed; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			x.cand[int(x.n[l])<<6|l] = int32(id)
			x.n[l]++
		}
	}
	for m := failed; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		for i := int(x.n[l]) - 1; i > 0; i-- {
			j, _ := bits.Mul64(w.next(), uint64(i+1))
			a, b := i<<6|l, int(j)<<6|l
			x.cand[a], x.cand[b] = x.cand[b], x.cand[a]
		}
	}
}

// gather puts the block's failing lanes into the shrink word, shrinking and
// collecting the word whenever all 64 of its lanes are held. Filling a word
// from two partial ones moves lanes one way or the other, so it moves the
// fewer: the block's failing lanes into the word's free lanes, or — when the
// word is empty, or the block is nearly full of failures — the word's lanes
// into the block, which is adopted as the word in place. A word that fills
// is shrunk and what is left of the other becomes the word. Lanes shrink
// independently, so where a sample is shrunk cannot change its RG.
func (w *wordWorker) gather(failed uint64) {
	h, f := bits.OnesCount64(w.held), bits.OnesCount64(failed)
	if min(h, 64-f) < min(f, 64-h) {
		failed = w.adopt(failed)
	}
	for ; failed != 0 && w.held != ^uint64(0); failed &= failed - 1 {
		w.move(bits.TrailingZeros64(failed), bits.TrailingZeros64(^w.held))
	}
	if w.held == ^uint64(0) {
		w.flush()
		if failed != 0 {
			w.adopt(failed)
		}
	}
}

// adopt swaps the block and the shrink word without copying: the block's
// lanes in mask become the word's held lanes, its other lanes cleared, and
// the lanes the word held — returned — become the block's.
func (w *wordWorker) adopt(mask uint64) uint64 {
	w.blk, w.word = w.word, w.blk
	for _, id := range w.basics {
		w.word.st[id] &= mask
	}
	held := w.held
	w.held = mask
	return held
}

// move copies block lane l — its failed events and shrink order — into the
// free word lane d, whose events are all clear, and holds d.
func (w *wordWorker) move(l, d int) {
	src, dst := w.blk, w.word
	for t := 0; t < int(src.n[l]); t++ {
		id := src.cand[t<<6|l]
		dst.cand[t<<6|d] = id
		dst.st[id] |= 1 << d
	}
	dst.n[d] = src.n[l]
	w.held |= 1 << d
}

// flush shrinks every held lane of the shrink word to an irreducible RG,
// collects it and empties the word: step t drops every lane's t-th
// candidate at once, evaluates the graph once, and puts the candidate back
// in the lanes whose top event stopped failing.
func (w *wordWorker) flush() {
	x := w.word
	steps := 0
	for m := w.held; m != 0; m &= m - 1 {
		steps = max(steps, int(x.n[bits.TrailingZeros64(m)]))
	}
	pending := w.held
	for t := 0; t < steps; t++ {
		cand := x.cand[t<<6 : t<<6+64]
		var step uint64
		for m := pending; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if t >= int(x.n[l]) {
				pending &^= 1 << l
				continue
			}
			x.st[cand[l]] &^= 1 << l
			step |= 1 << l
		}
		for m := step &^ w.eval(x.st); m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			x.st[cand[l]] |= 1 << l
		}
	}
	w.collect(x.st, w.held)
	w.held = 0
}

// collect records the failed basic events in st of every lane in mask as
// an RG.
func (w *wordWorker) collect(st []uint64, mask uint64) {
	nw := w.seen.nw
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		clear(w.keys[l*nw : (l+1)*nw])
	}
	for r, id := range w.basics {
		for m := st[id] & mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			w.keys[l*nw+r>>6] |= 1 << (r & 63)
		}
	}
	for m := mask; m != 0; m &= m - 1 {
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
