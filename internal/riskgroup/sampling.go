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
// each worker moves the failing lanes of successive blocks, each with the
// shrink order its block's stream drew for it, into one shrink word, and
// steps all 64 of them together — one graph evaluation per step for the
// whole word, each lane removing its own next candidate. A lane that is
// done leaves the word and the next block's lanes take its place, so the
// word steps only while full, until it drains after the worker's last
// block. Lanes shrink independently, so where and when a sample is shrunk
// never changes its RG.
//
// Most failing samples need no shrink at all. A failed basic event is
// critical in a lane when some path from it to the top fails there through
// it at every gate: as any child of an AND, as the only failed child of an
// OR, or as one of exactly K failed children of a K-of-N gate. Recovering a
// critical event recovers the top, in the sample and — gates being
// monotone — in every subset of it, so every irreducible subset of the
// sample holds every critical event. When the critical events alone fail
// the top, they are therefore the sample's only irreducible subset: the
// greedy shrink returns them in whatever order it removes events, and the
// lane is collected as it is, its shuffle draws skipped by advancing the
// stream's counter past them. The rule needs criticality propagated through
// the gates, not summed per event: an event shared by two failed branches
// of an OR is critical to neither, and such a lane is shrunk.
//
// The same holds in every state of a shrink, not only in the sample: the
// state a removal leaves is a failing set whose irreducible subsets are
// exactly those the rest of the shrink can end in, and when its critical
// events alone fail the top they are the only one. So every few steps the
// shrink word settles the lanes whose last removal stuck, by the same
// rule, and collects each as its critical set — the RG its remaining
// candidates would have shrunk it to, whatever their order — long before
// its candidates run out.
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
	blocks := (s.Rounds-1)/64 + 1 // (Rounds+63)/64 overflows near MaxInt
	workers := runtime.GOMAXPROCS(0)
	if s.Workers > 0 {
		workers = min(workers, s.Workers)
	}
	workers = min(workers, blocks)

	tr := telemetry.FromContext(ctx)
	defer tr.Start("sampling")()

	// Worker w takes blocks w, w+workers, …; the family is the union of
	// every block's lanes, so how blocks are striped cannot change it.
	ws := make([]*wordWorker, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ws[w] = k.newWorker()
		wg.Add(1)
		go func(ws *wordWorker, w int) {
			defer wg.Done()
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
			for ws.held != 0 {
				ws.step()
			}
		}(ws[w], w)
	}
	wg.Wait()
	defer func() {
		for _, o := range ws {
			o.release()
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var evals, failed, settled, passes int
	for _, o := range ws {
		if o != ws[0] {
			ws[0].seen.union(o.seen)
		}
		evals, failed = evals+o.evals, failed+o.failed
		settled, passes = settled+o.settled, passes+o.passes
	}
	out := ws[0].seen.family(k.basics)
	sortFamily(out)
	tr.Add("rounds_sampled", int64(s.Rounds))
	tr.Add("rounds_failed", int64(failed))
	tr.Add("graph_evals", int64(evals))
	tr.Add("lanes_settled", int64(settled))
	tr.Add("settle_passes", int64(passes))
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
	isGate []bool // by node id
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
		isGate: make([]bool, g.Len()),
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
		k.isGate[id] = true
	}
	return k
}

// gamma is SplitMix64's counter increment: every draw advances the stream's
// counter by it.
const gamma = 0x9e3779b97f4a7c15

// samplerSalt separates the sampler's streams from other SplitMix64 users
// of the same seed.
const samplerSalt = 0x73616d706c657273 // "samplers"

// splitmix64 is the SplitMix64 output function applied to x + γ.
func splitmix64(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// wordWorker is one goroutine's mutable state: the block being sampled, the
// shrink word, the K-of-N planes, the RGs found so far and its counts.
type wordWorker struct {
	*wordKernel
	bufs    *workerBufs // where the arrays below come from and go back to
	blk     *lanes      // the block being sampled
	word    *lanes      // the shrink word: failing lanes gathered across blocks
	held    uint64      // the shrink word's occupied lanes; no event fails in the others
	at      [64]int32   // shrink word lane l's next candidate
	steps   int         // shrink steps taken
	planes  []uint64
	exact   []uint64 // with Shrink: the evaluated lanes' exactly-K lanes by gate
	crit    []uint64 // with Shrink: the settled lanes' critical lanes by node id
	rng     uint64
	key     []uint64 // an RG's basic-rank bitset
	cols    []uint64 // collect's failure lanes of the events failed in some lane
	ranks   []int32  // and those events' basic ranks
	seen    *rgSet
	evals   int // graph evaluations
	failed  int // rounds whose top event failed
	settled int // failing rounds collected as their critical sets
	passes  int // settle passes
}

// lanes is 64 samples side by side: a failure word per node and, with
// Shrink, each lane's shrink order.
type lanes struct {
	st   []uint64  // failure lanes by node id
	cand []int32   // lane l's t-th shrink candidate, a node id, in cand[l*nb+t]
	n    [64]int32 // lane l's candidate count
}

// workerBufs are a worker's arrays, kept in bufPool between Sample calls:
// a served audit would otherwise allocate them — two 64-lane candidate
// arrays and several node-sized words per worker — on every call.
type workerBufs struct {
	blk, word                      lanes
	planes, exact, crit, key, cols []uint64
	ranks                          []int32
}

var bufPool = sync.Pool{New: func() any { return new(workerBufs) }}

// resized returns s with length n and every element zero, in s's own array
// when it has room.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fit sizes x for k's graph.
func (x *lanes) fit(k *wordKernel) *lanes {
	x.st = resized(x.st, k.nodes)
	if k.shrink {
		x.cand = resized(x.cand, 64*len(k.basics))
	}
	return x
}

func (k *wordKernel) newWorker() *wordWorker {
	b := bufPool.Get().(*workerBufs)
	nw := max(1, (len(k.basics)+63)/64)
	w := &wordWorker{
		wordKernel: k,
		bufs:       b,
		blk:        b.blk.fit(k),
		planes:     resized(b.planes, k.maxK+1),
		key:        resized(b.key, nw),
		cols:       b.cols[:0],
		ranks:      b.ranks[:0],
		seen:       newRGSet(nw),
	}
	if k.shrink {
		w.word = b.word.fit(k)
		w.exact = resized(b.exact, len(k.gates))
		w.crit = resized(b.crit, k.nodes)
	}
	return w
}

// release hands w's arrays back to bufPool; w is not used afterwards.
func (w *wordWorker) release() {
	b := w.bufs
	b.planes, b.key, b.cols, b.ranks = w.planes, w.key, w.cols, w.ranks
	if w.shrink {
		b.exact, b.crit = w.exact, w.crit
	}
	w.bufs = nil
	bufPool.Put(b)
}

func (w *wordWorker) next() uint64 {
	x := w.rng
	w.rng += gamma
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
	w.evals++
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
			p := w.planes[:g.k]
			countPlanes(p, kids, st)
			x = p[len(p)-1]
		}
		st[g.id] = x
	}
	return st[w.top]
}

// countPlanes sets p[j] to the lanes where more than j of kids are set in
// st: a K-of-N gate fails in p[K-1].
func countPlanes(p []uint64, kids []int32, st []uint64) {
	clear(p)
	for _, c := range kids {
		f := st[c]
		for j := len(p) - 1; j > 0; j-- {
			p[j] |= p[j-1] & f
		}
		p[0] |= f
	}
}

// evalExact is eval that also records in exact[i] the lanes where gate i
// has exactly K failed children: those where each of its failed children
// is critical to it. Only a block's draws need it, so the shrink's many
// evaluations keep eval's tighter loop.
func (w *wordWorker) evalExact(st []uint64) uint64 {
	w.evals++
	for i, g := range w.gates {
		kids := w.kids[g.lo:g.hi]
		var x, ex uint64
		switch int(g.k) {
		case 1:
			var twice uint64
			for _, c := range kids {
				twice |= x & st[c]
				x |= st[c]
			}
			ex = x &^ twice
		case len(kids):
			x = ^uint64(0)
			for _, c := range kids {
				x &= st[c]
			}
			ex = x
		default:
			// One plane more than eval's tells exactly K from more.
			p := w.planes[:g.k+1]
			countPlanes(p, kids, st)
			x = p[g.k-1]
			ex = x &^ p[g.k]
		}
		st[g.id], w.exact[i] = x, ex
	}
	return st[w.top]
}

// block samples the rounds of block b whose lanes are set in active and
// moves the lanes draw returns into the shrink word, stepping it whenever
// it is full.
func (w *wordWorker) block(b int, active uint64) {
	for shrink := w.gather(w.draw(b, active)); shrink != 0; shrink = w.gather(shrink) {
		w.step()
	}
}

// draw samples the rounds of block b whose lanes are set in active. Without
// Shrink its failing lanes are collected as they are; with Shrink the lanes
// settle collects are done, and draw returns the others, their shrink
// orders drawn, for the shrink word.
func (w *wordWorker) draw(b int, active uint64) uint64 {
	w.rng = splitmix64(w.seed + uint64(b))
	st := w.blk.st
	for r, id := range w.basics {
		st[id] = w.flip(w.thr[r])
	}
	var failed uint64
	if w.shrink {
		failed = w.evalExact(st) & active
	} else {
		failed = w.eval(st) & active
	}
	if failed == 0 {
		return 0
	}
	w.failed += bits.OnesCount64(failed)
	if !w.shrink {
		w.collect(st, failed)
		return 0
	}
	settled := w.settle(st, failed)
	shrink := failed &^ settled
	if shrink != 0 {
		w.orders(shrink, settled)
	}
	return shrink
}

// settle finds the lanes of failed whose critical events in st alone fail
// the top event, collects each one's critical set as its RG — the RG its
// shrink would return, whatever the order (see Sampler) — and returns those
// lanes. st's gates and exact must be the evaluation of st in those lanes.
//
// It walks the gates parents first: a gate's critical lanes pass to each
// failed child in the lanes where the gate has exactly K failed children,
// as the evaluation recorded them — every child of an AND, the only failed
// child of an OR. The critical events then fail the top in a lane exactly
// when every critical gate fails on them, which most lanes decide without
// an evaluation: an exactly-K gate has K critical children, and bottom up
// those fail on the critical events; a gate with K critical children does
// too; a gate with fewer does not, unless an uncritical child gate that
// failed can fail on them. Only lanes in that last case are evaluated on
// the critical sets, once for the call.
func (w *wordWorker) settle(st []uint64, failed uint64) uint64 {
	w.passes++
	crit := w.crit
	clear(crit)
	crit[w.top] = failed
	for i := len(w.gates) - 1; i >= 0; i-- {
		g := w.gates[i]
		c := crit[g.id] & w.exact[i]
		if c == 0 {
			continue
		}
		for _, k := range w.kids[g.lo:g.hi] {
			crit[k] |= c & st[k]
		}
	}
	settled, doubt := failed, uint64(0)
	for i := len(w.gates) - 1; i >= 0 && settled != 0; i-- {
		g := w.gates[i]
		c := crit[g.id] &^ w.exact[i] & settled
		if c == 0 {
			continue
		}
		kids := w.kids[g.lo:g.hi]
		// Lanes with at least K critical children, as eval counts failed
		// ones: countPlanes alone would cost an AND gate K² steps.
		var enough uint64
		switch int(g.k) {
		case 1:
			for _, k := range kids {
				enough |= crit[k]
			}
		case len(kids):
			enough = ^uint64(0)
			for _, k := range kids {
				enough &= crit[k]
			}
		default:
			p := w.planes[:g.k]
			countPlanes(p, kids, crit)
			enough = p[g.k-1]
		}
		short := c &^ enough
		if short == 0 {
			continue
		}
		settled &^= short
		for _, k := range kids {
			if w.isGate[k] { // an uncritical child gate that failed
				doubt |= short & st[k] &^ crit[k]
			}
		}
	}
	if doubt != 0 {
		settled |= w.eval(crit) & doubt
	}
	if settled != 0 {
		w.settled += bits.OnesCount64(settled)
		w.collect(crit, settled)
	}
	return settled
}

// orders draws the shrink order of each lane of the block in shrink: its
// failed events, shuffled from the block's stream in ascending lane order.
// Each lane removes its events in its own random order (an order shared by
// the block finds far fewer distinct minimal RGs). A settled lane needs no
// order, nor even a list: the n−1 draws of each run of settled lanes below
// a shrinking lane are skipped by advancing the counter over them, so every
// shrinking lane draws what it would have drawn. Settled lanes above the
// last shrinking lane are not skipped at all: the next block reseeds.
func (w *wordWorker) orders(shrink, settled uint64) {
	x, nb := w.blk, len(w.basics)
	for m := shrink; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		order, n := x.cand[l*nb:(l+1)*nb], 0
		for _, id := range w.basics {
			order[n] = int32(id)
			n += int(x.st[id] >> l & 1)
		}
		order, x.n[l] = order[:n], int32(n)
		if run := settled & (1<<l - 1); run != 0 {
			// Every failing lane has a failed event, so a run of r lanes
			// draws its events' count less r.
			draws := -bits.OnesCount64(run)
			for _, id := range w.basics {
				draws += bits.OnesCount64(x.st[id] & run)
			}
			w.rng += uint64(draws) * gamma
			settled &^= run
		}
		for i := len(order) - 1; i > 0; i-- {
			j, _ := bits.Mul64(w.next(), uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
	}
}

// gather moves the block's lanes in shrink into the shrink word's free
// lanes and returns those that did not fit, if any; the word is then full,
// so stepping it between gathers keeps it full from the first block it
// fills to the last. Block lanes whose own word lanes are free move there,
// their events all in one pass of word operations; the others move one by
// one to the lowest free lanes.
func (w *wordWorker) gather(shrink uint64) uint64 {
	for shrink != 0 && w.held != ^uint64(0) {
		if same := shrink &^ w.held; same != 0 {
			for m := same; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				w.move(l, l)
			}
			for _, id := range w.basics {
				w.word.st[id] |= w.blk.st[id] & same
			}
			w.held |= same
			shrink &^= same
			continue
		}
		d := bits.TrailingZeros64(^w.held)
		for _, id := range w.move(bits.TrailingZeros64(shrink), d) {
			w.word.st[id] |= 1 << d
		}
		w.held |= 1 << d
		shrink &= shrink - 1
	}
	return shrink
}

// move copies block lane l's shrink order into word lane d, starts d at its
// first candidate and returns the order.
func (w *wordWorker) move(l, d int) []int32 {
	nb, n := len(w.basics), w.blk.n[l]
	order := w.word.cand[d*nb : d*nb+int(n)]
	copy(order, w.blk.cand[l*nb:])
	w.word.n[d], w.at[d] = n, 0
	return order
}

// settleEvery is how many shrink steps pass between settle checks. A check
// costs an evaluation that also records the exactly-K lanes and two walks
// of the gates; most shrinking lanes settle a third of the way through
// their candidates, so checking every few steps frees their word lanes far
// sooner than running their lists out, for less than checking every step.
const settleEvery = 4

// step advances every held lane of the shrink word by one candidate: it
// drops each lane's next candidate at once, evaluates the graph once, and
// puts the candidate back in the lanes whose top event stopped failing. A
// lane whose candidates are spent holds an irreducible RG. Every
// settleEvery-th step also settles the lanes whose removal stuck: a lane
// whose critical events alone fail the top holds them as the only
// irreducible subset of its state, so the rest of its shrink would return
// them (see Sampler). Both kinds are collected and their word lanes freed
// for the lanes gather moves in.
func (w *wordWorker) step() {
	x, nb := w.word, len(w.basics)
	var done uint64
	for m := w.held; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		x.st[x.cand[l*nb+int(w.at[l])]] &^= 1 << l
		w.at[l]++
		if w.at[l] == x.n[l] {
			done |= 1 << l
		}
	}
	w.steps++
	check := w.steps%settleEvery == 0
	var top uint64
	if check {
		top = w.evalExact(x.st)
	} else {
		top = w.eval(x.st)
	}
	for m := w.held &^ top; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		x.st[x.cand[l*nb+int(w.at[l])-1]] |= 1 << l
	}
	if done != 0 {
		w.collect(x.st, done)
	}
	if stuck := w.held & top &^ done; check && stuck != 0 {
		done |= w.settle(x.st, stuck)
	}
	if done != 0 {
		for _, id := range w.basics {
			x.st[id] &^= done
		}
		w.held &^= done
	}
}

// collect records the failed basic events in st of every lane in mask as
// an RG. Lanes often repeat a set, so it takes one distinct set at a time:
// the lowest lane left's, found together with every lane whose column
// equals it by one pass of word operations over the events that fail in
// any lane of mask, and added once.
func (w *wordWorker) collect(st []uint64, mask uint64) {
	cols, ranks := w.cols[:0], w.ranks[:0]
	for r, id := range w.basics {
		if x := st[id] & mask; x != 0 {
			cols, ranks = append(cols, x), append(ranks, int32(r))
		}
	}
	w.cols, w.ranks = cols, ranks
	key := w.key
	for mask != 0 {
		l := uint(bits.TrailingZeros64(mask))
		clear(key)
		same := mask
		for i, x := range cols {
			b := x >> l & 1
			key[ranks[i]>>6] |= b << (ranks[i] & 63)
			same &= x ^ (b - 1) // x where lane l failed the event, ^x where not
		}
		w.seen.add(key)
		mask &^= same
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
