package riskgroup

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"indaas/internal/faultgraph"
)

// refSampleRounds is the per-round sampler the 64-lane kernel replaced, kept
// as the detection-rate reference: a math/rand coin per basic event per
// round, a full evaluation, and an incremental shrink in a random order.
func refSampleRounds(g *faultgraph.Graph, bias float64, seed int64, rounds int, shrink bool) []RG {
	basics := g.BasicEvents()
	rng := rand.New(rand.NewSource(seed))
	ev := g.NewEvaluator()
	a := g.AcquireAssignment()
	defer g.ReleaseAssignment(a)
	failed := make(RG, 0, len(basics))
	shuffled := make(RG, 0, len(basics))
	kept := make(RG, 0, len(basics))
	keybuf := make([]byte, 0, 4*len(basics))
	seen := make(map[string]struct{})
	var out []RG
	for round := 0; round < rounds; round++ {
		failed = failed[:0]
		for _, id := range basics {
			f := rng.Float64() < bias
			a[id] = f
			if f {
				failed = append(failed, id)
			}
		}
		if len(failed) == 0 || !ev.EvalBasics(a) {
			continue
		}
		rg := failed
		if shrink {
			shuffled = append(shuffled[:0], failed...)
			rng.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			kept = kept[:0]
			for _, id := range shuffled {
				ev.SetBasic(id, false)
				if !ev.TopFailed() {
					ev.SetBasic(id, true)
					kept = append(kept, id)
				}
			}
			rg = kept
			sortRG(rg)
		}
		keybuf = keybuf[:0]
		for _, id := range rg {
			keybuf = binary.LittleEndian.AppendUint32(keybuf, uint32(id))
		}
		if _, ok := seen[string(keybuf)]; ok {
			continue
		}
		cp := make(RG, len(rg))
		copy(cp, rg)
		seen[string(keybuf)] = struct{}{}
		out = append(out, cp)
	}
	if shrink {
		out = minimizeFamily(graphIndexer{g: g}, out)
	}
	sortFamily(out)
	return out
}

// sortRG orders an RG's members ascending (shrink output follows the
// randomized removal order).
func sortRG(rg RG) {
	for i := 1; i < len(rg); i++ {
		for j := i; j > 0 && rg[j] < rg[j-1]; j-- {
			rg[j], rg[j-1] = rg[j-1], rg[j]
		}
	}
}

// familyBytes renders a family canonically, for byte-equality checks.
func familyBytes(fam []RG) string { return fmt.Sprint(fam) }

// kofnDAG is a deterministic random DAG rich in K-of-N gates.
func kofnDAG(t testing.TB, seed int64, nb, ng int) *faultgraph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := faultgraph.NewBuilder()
	var ids []faultgraph.NodeID
	for i := 0; i < nb; i++ {
		ids = append(ids, b.Basic(fmt.Sprintf("b%d", i)))
	}
	for i := 0; i < ng; i++ {
		n := 2 + r.Intn(min(5, len(ids)-1))
		kids := make([]faultgraph.NodeID, n)
		for j, p := range r.Perm(len(ids))[:n] {
			kids[j] = ids[p]
		}
		ids = append(ids, b.GateK(fmt.Sprintf("g%d", i), 1+r.Intn(n), kids...))
	}
	b.SetTop(b.GateK("TOP", 2, ids[len(ids)-1], ids[len(ids)-2], ids[len(ids)-3]))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSamplerFamilyIndependentOfWorkers: the family is byte-identical for
// every worker count and GOMAXPROCS, at round counts on both sides of a
// block boundary, on graphs with one-word and multi-word RG keys.
func TestSamplerFamilyIndependentOfWorkers(t *testing.T) {
	graphs := map[string]*faultgraph.Graph{
		"fig4c":   fig4c(t),
		"k8":      fatTreeDeployment(t, 8),
		"k16":     fatTreeDeployment(t, 16),
		"kofn":    kofnDAG(t, 3, 12, 14),
		"kofn-90": kofnDAG(t, 4, 90, 60),
	}
	if n := graphs["k16"].NumBasics(); n <= 64 {
		t.Fatalf("k16 deployment has %d basic events; the multi-word case needs more than 64", n)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range graphs {
		for _, rounds := range []int{1, 63, 64, 65, 1000} {
			for _, shrink := range []bool{true, false} {
				var want string
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					for _, workers := range []int{1, 2, 3, 4, 16} {
						fam, err := Sampler{Rounds: rounds, Shrink: shrink, Seed: 17, Workers: workers}.Sample(g)
						if err != nil {
							t.Fatal(err)
						}
						got := familyBytes(fam)
						if want == "" {
							want = got
						} else if got != want {
							t.Fatalf("%s rounds=%d shrink=%v: GOMAXPROCS=%d workers=%d changed the family", name, rounds, shrink, procs, workers)
						}
					}
				}
			}
		}
	}
}

// TestSamplerShapes checks every family the kernel returns on graphs with
// more than 64 basic events, K-of-N gates, mixed per-event probabilities
// (0 and 1 among them) and without shrink: every member is an RG, members
// of a shrunk family are minimal RGs, and certain events appear exactly as
// their probabilities dictate.
func TestSamplerShapes(t *testing.T) {
	mixed := func() *faultgraph.Graph {
		b := faultgraph.NewBuilder()
		probs := []float64{0, 1, 0.03, 0.5, 0.97, 0.2, 0.8, 0.5}
		var ids []faultgraph.NodeID
		for i, p := range probs {
			ids = append(ids, b.BasicProb(fmt.Sprintf("e%d", i), p))
		}
		x := b.GateK("x", 2, ids[0], ids[2], ids[3], ids[4])
		y := b.Gate("y", faultgraph.OR, ids[5], ids[6], ids[0])
		z := b.Gate("z", faultgraph.AND, ids[7], ids[1])
		b.SetTop(b.GateK("top", 2, x, y, z))
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}()
	cases := []struct {
		name string
		g    *faultgraph.Graph
		s    Sampler
	}{
		{"k16 multi-word", fatTreeDeployment(t, 16), Sampler{Rounds: 3000, Bias: 0.9, Shrink: true, Seed: 2}},
		{"k16 multi-word raw", fatTreeDeployment(t, 16), Sampler{Rounds: 500, Seed: 2}},
		{"kofn", kofnDAG(t, 5, 10, 12), Sampler{Rounds: 5000, Shrink: true, Seed: 3}},
		{"kofn raw", kofnDAG(t, 5, 10, 12), Sampler{Rounds: 700, Seed: 3}},
		{"mixed probs", mixed, Sampler{Rounds: 5000, Shrink: true, UseEventProbs: true, Seed: 4}},
		{"mixed probs raw", mixed, Sampler{Rounds: 700, UseEventProbs: true, Seed: 4}},
		{"bias 1", fig4c(t), Sampler{Rounds: 200, Bias: 1, Shrink: true, Seed: 5}},
		{"bias 1 raw", fig4c(t), Sampler{Rounds: 200, Bias: 1, Seed: 5}},
	}
	for _, c := range cases {
		fam, err := c.s.Sample(c.g)
		if err != nil {
			t.Fatal(err)
		}
		if len(fam) == 0 {
			t.Fatalf("%s: no RGs sampled", c.name)
		}
		for _, rg := range fam {
			if !IsRG(c.g, rg) {
				t.Fatalf("%s: %v is not an RG", c.name, Labels(c.g, rg))
			}
			if c.s.Shrink && !IsMinimalRG(c.g, rg) {
				t.Fatalf("%s: %v is not minimal", c.name, Labels(c.g, rg))
			}
			if c.s.UseEventProbs {
				labels := fmt.Sprint(Labels(c.g, rg))
				if e0, _ := c.g.Lookup("e0"); containsID(rg, e0) {
					t.Fatalf("%s: %s holds e0, whose probability is 0", c.name, labels)
				}
				if e1, _ := c.g.Lookup("e1"); !c.s.Shrink && !containsID(rg, e1) {
					t.Fatalf("%s: %s lacks e1, whose probability is 1", c.name, labels)
				}
			}
		}
		if c.name == "bias 1 raw" && (len(fam) != 1 || len(fam[0]) != c.g.NumBasics()) {
			t.Fatalf("%s: want the one all-events RG, got %v", c.name, labelsOf(c.g, fam))
		}
	}

	// Probability 0 everywhere: nothing ever fails.
	b := faultgraph.NewBuilder()
	b.SetTop(b.Gate("top", faultgraph.OR, b.BasicProb("a", 0), b.BasicProb("c", 0)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fam, err := Sampler{Rounds: 1000, Shrink: true, UseEventProbs: true}.Sample(g)
	if err != nil || len(fam) != 0 {
		t.Fatalf("probability 0: got %v, %v; want an empty family", fam, err)
	}
}

func containsID(rg RG, id faultgraph.NodeID) bool {
	for _, x := range rg {
		if x == id {
			return true
		}
	}
	return false
}

// TestSamplerFlipBias: the bit-sliced coin flips fail each lane with the
// requested probability, within 4σ over 2²⁰ lanes.
func TestSamplerFlipBias(t *testing.T) {
	w := &wordWorker{rng: 99}
	const words = 1 << 14
	for _, p := range []float64{0.03, 0.5, 0.97} {
		thr := uint64(math.Round(p * (1 << 32)))
		ones := 0
		for i := 0; i < words; i++ {
			x := w.flip(thr)
			for ; x != 0; x &= x - 1 {
				ones++
			}
		}
		n := float64(64 * words)
		got := float64(ones) / n
		if sigma := math.Sqrt(p * (1 - p) / n); math.Abs(got-p) > 4*sigma {
			t.Errorf("p=%v: empirical failure rate %v, more than 4σ=%v away", p, got, 4*sigma)
		}
	}
}

// TestSamplerShrinkMinimal: every shrunk RG fails the top event, stops
// failing it when any one member recovers, and belongs to the brute-force
// minimal family.
func TestSamplerShrinkMinimal(t *testing.T) {
	for i, g := range []*faultgraph.Graph{fig4c(t), kofnDAG(t, 7, 11, 10), kofnDAG(t, 8, 9, 14), fatTreeDeployment(t, 4)} {
		brute := map[string]bool{}
		for _, rg := range BruteForceMinimalRGs(g, g.NumBasics()) {
			brute[rg.key()] = true
		}
		for _, bias := range []float64{0.3, 0.5, 0.97} {
			fam, err := Sampler{Rounds: 2000, Bias: bias, Shrink: true, Seed: int64(i + 1)}.Sample(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, rg := range fam {
				words := make([]uint64, (g.NumBasics()+63)/64)
				for _, id := range rg {
					r := g.BasicRank(id)
					words[r>>6] |= 1 << (r & 63)
				}
				if !g.EvaluateBasicRanks(words) {
					t.Fatalf("graph %d: %v does not fail the top event", i, Labels(g, rg))
				}
				for _, id := range rg {
					r := g.BasicRank(id)
					words[r>>6] &^= 1 << (r & 63)
					if g.EvaluateBasicRanks(words) {
						t.Fatalf("graph %d: %v is reducible by %s", i, Labels(g, rg), g.Node(id).Label)
					}
					words[r>>6] |= 1 << (r & 63)
				}
				if !brute[rg.key()] {
					t.Fatalf("graph %d: %v is not in the brute-force minimal family", i, Labels(g, rg))
				}
			}
		}
	}
}

// TestDetectionParity: over 100 seeds, the kernel's mean Fig. 7 detection
// rate on the k=8 deployment is within 3 standard errors of the per-round
// reference sampler's. Under the race detector, which checks the workers'
// synchronization rather than the statistics, only the 10³-round point runs:
// the 10⁵-round reference alone would take minutes there.
func TestDetectionParity(t *testing.T) {
	g := fatTreeDeployment(t, 8)
	truth, err := MinimalRGs(g, MinimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 100
	points := []struct {
		bias   float64
		rounds int
	}{{0.97, 1_000}, {0.5, 100_000}}
	if raceEnabled {
		points = points[:1]
	}
	for _, c := range points {
		ref := make([]float64, seeds)
		got := make([]float64, seeds)
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					seed := int64(i + 1)
					ref[i] = DetectionRate(truth, refSampleRounds(g, c.bias, seed, c.rounds, true))
					fam, err := Sampler{Rounds: c.rounds, Bias: c.bias, Shrink: true, Seed: seed, Workers: 1}.Sample(g)
					if err != nil {
						t.Error(err)
						continue
					}
					got[i] = DetectionRate(truth, fam)
				}
			}()
		}
		for i := 0; i < seeds; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		mr, vr := meanVar(ref)
		mg, vg := meanVar(got)
		se := math.Sqrt(vr/seeds + vg/seeds)
		t.Logf("bias %v, %d rounds: kernel %.4f, reference %.4f (se %.4f)", c.bias, c.rounds, mg, mr, se)
		if math.Abs(mg-mr) > 3*se+1e-12 {
			t.Errorf("bias %v, %d rounds: mean detection %.4f, reference %.4f: more than 3 standard errors (%.4f) apart", c.bias, c.rounds, mg, mr, se)
		}
	}
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs)-1)
}

// blockShrinkReference is the per-block shrink the shrink word replaced,
// kept as its oracle: block b shrinks its own failing lanes, evaluating all
// 64 lanes at every step, and collects them before the next block starts.
// It lays each lane's shrink order out contiguously in the block's cand, at
// l*nb, and never touches the shrink word.
func (w *wordWorker) blockShrinkReference(b int, active uint64) {
	w.rng = splitmix64(w.seed + uint64(b))
	st := w.blk.st
	for r, id := range w.basics {
		st[id] = w.flip(w.thr[r])
	}
	failed := w.eval(st) & active
	if failed == 0 {
		return
	}
	if w.shrink {
		w.shrinkLanesReference(failed)
	}
	w.collect(st, failed)
}

// shrinkLanesReference reduces every failing lane of the block to an
// irreducible RG. Each lane removes its own failed events in its own random
// order: step t drops every lane's t-th candidate at once, evaluates the
// graph once, and puts the candidate back in the lanes whose top event
// stopped failing.
func (w *wordWorker) shrinkLanesReference(failed uint64) {
	x, nb := w.blk, len(w.basics)
	for m := failed; m != 0; m &= m - 1 {
		x.n[bits.TrailingZeros64(m)] = 0
	}
	for _, id := range w.basics {
		for m := x.st[id] & failed; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			x.cand[l*nb+int(x.n[l])] = int32(id)
			x.n[l]++
		}
	}
	steps := 0
	for m := failed; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		order := x.cand[l*nb : l*nb+int(x.n[l])]
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
			if t >= int(x.n[l]) {
				pending &^= 1 << l
				continue
			}
			x.st[x.cand[l*nb+t]] &^= 1 << l
			step |= 1 << l
		}
		for m := step &^ w.eval(x.st); m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			x.st[x.cand[l*nb+t]] |= 1 << l
		}
	}
}

// blockReferenceSample runs s on g block by block through
// blockShrinkReference on one worker and returns the sorted family.
func blockReferenceSample(s Sampler, g *faultgraph.Graph) ([]RG, error) {
	thr, err := s.thresholds(g)
	if err != nil {
		return nil, err
	}
	k := newWordKernel(g, thr, s.Shrink, s.Seed)
	w := k.newWorker()
	for b := 0; 64*b < s.Rounds; b++ {
		active := ^uint64(0)
		if rest := s.Rounds - 64*b; rest < 64 {
			active = 1<<rest - 1
		}
		w.blockShrinkReference(b, active)
	}
	out := w.seen.family(k.basics)
	sortFamily(out)
	return out, nil
}

// randomProbs copies g's structure with a random failure probability on
// every basic event, 0 and 1 among them, for UseEventProbs.
func randomProbs(t testing.TB, g *faultgraph.Graph, seed int64) *faultgraph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := faultgraph.NewBuilder()
	ids := make([]faultgraph.NodeID, g.Len())
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		if n.Gate == faultgraph.Basic {
			p := []float64{0, 1, r.Float64()}[r.Intn(3)]
			ids[id] = b.BasicProb(n.Label, p)
			continue
		}
		kids := make([]faultgraph.NodeID, len(n.Children))
		for i, c := range n.Children {
			kids[i] = ids[c]
		}
		ids[id] = b.GateK(n.Label, n.K, kids...)
	}
	b.SetTop(ids[g.Top()])
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSamplerMatchesBlockReference: the shrink word, filled across blocks,
// detects byte-for-byte the family the per-block shrink detects — on fat
// trees, random AND/OR/K-of-N graphs and graphs with more than 64 basic
// events, at round counts around a block boundary and up to 10⁵, for 1–3
// workers, sparse and dense failures, per-event probabilities, and with
// shrink on and off.
func TestSamplerMatchesBlockReference(t *testing.T) {
	type graph struct {
		name  string
		g     *faultgraph.Graph
		probs bool
	}
	k16 := fatTreeDeployment(t, 16)
	if n := k16.NumBasics(); n <= 64 {
		t.Fatalf("k16 deployment has %d basic events; the multi-word case needs more than 64", n)
	}
	graphs := []graph{
		{"k4", fatTreeDeployment(t, 4), false},
		{"k8", fatTreeDeployment(t, 8), false},
		{"k16", k16, false},
		{"random", randomDAG(rand.New(rand.NewSource(21)), 9, 14), false},
		{"kofn", kofnDAG(t, 3, 12, 14), false},
		{"kofn-90", kofnDAG(t, 4, 90, 60), false},
		{"kofn probs", randomProbs(t, kofnDAG(t, 6, 14, 16), 6), true},
		{"k8 probs", randomProbs(t, fatTreeDeployment(t, 8), 7), true},
	}
	rounds := []int{1, 63, 64, 65, 1000, 100_000}
	if raceEnabled {
		// The race detector checks the workers' synchronization; a 10⁵-round
		// reference on k=16 alone takes minutes under it.
		rounds = rounds[:5]
	}
	for _, c := range graphs {
		for _, n := range rounds {
			for _, bias := range []float64{0, 0.3, 0.97} {
				for _, probs := range []bool{false, true} {
					if probs && (!c.probs || bias != 0) {
						continue
					}
					for _, shrink := range []bool{true, false} {
						s := Sampler{Rounds: n, Bias: bias, UseEventProbs: probs, Shrink: shrink, Seed: int64(n) + 5}
						ref, err := blockReferenceSample(s, c.g)
						if err != nil {
							t.Fatal(err)
						}
						want := familyBytes(ref)
						for _, workers := range []int{1, 2, 3} {
							s.Workers = workers
							fam, err := s.Sample(c.g)
							if err != nil {
								t.Fatal(err)
							}
							if got := familyBytes(fam); got != want {
								t.Fatalf("%s rounds=%d bias=%v probs=%v shrink=%v workers=%d: %d RGs, block reference %d",
									c.name, n, bias, probs, shrink, workers, len(fam), len(ref))
							}
						}
					}
				}
			}
		}
	}
}

// fuzzGraph builds a small graph from data: up to 80 basic events (so both
// one-word and multi-word RG keys occur), up to 24 AND/OR/K-of-N gates, and
// a failure probability per basic event. A missing byte reads as zero.
func fuzzGraph(data []byte) *faultgraph.Graph {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	nb := 1 + next()%80
	ng := 1 + next()%24
	b := faultgraph.NewBuilder()
	var ids []faultgraph.NodeID
	for j := 0; j < nb; j++ {
		ids = append(ids, b.BasicProb(fmt.Sprintf("b%d", j), float64(next())/255))
	}
	for j := 0; j < ng; j++ {
		kind := next()
		n := 1 + next()%min(6, len(ids))
		seen := map[int]bool{}
		var kids []faultgraph.NodeID
		for len(kids) < n {
			c := (next() + len(kids)*7 + j) % len(ids)
			for seen[c] {
				c = (c + 1) % len(ids)
			}
			seen[c] = true
			kids = append(kids, ids[c])
		}
		label := fmt.Sprintf("g%d", j)
		switch kind % 3 {
		case 0:
			ids = append(ids, b.Gate(label, faultgraph.AND, kids...))
		case 1:
			ids = append(ids, b.Gate(label, faultgraph.OR, kids...))
		default:
			ids = append(ids, b.GateK(label, 1+next()%n, kids...))
		}
	}
	b.SetTop(b.Gate("TOP", faultgraph.OR, ids[len(ids)-1]))
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FuzzSamplerMatchesBlockReference: on any small graph, seed, round count,
// bias, worker count and switch setting the fuzzer finds, the shrink word
// detects exactly the block reference's family.
func FuzzSamplerMatchesBlockReference(f *testing.F) {
	f.Add(int64(1), uint16(1000), uint8(0), uint8(0b011), []byte{5, 6, 1, 2, 3, 4, 5, 6, 0, 2, 1, 3, 1, 3, 4, 5, 2, 3, 0, 1, 2})
	f.Add(int64(7), uint16(65), uint8(247), uint8(0b101), []byte{70, 20, 9, 9, 9})
	f.Add(int64(-3), uint16(64), uint8(77), uint8(0b111), []byte{12, 23, 255, 0, 128, 64, 2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41})
	f.Add(int64(42), uint16(4000), uint8(128), uint8(0b001), []byte{})
	f.Add(int64(9), uint16(1), uint8(255), uint8(0b110), []byte{79, 0})
	f.Fuzz(func(t *testing.T, seed int64, rounds uint16, bias, flags uint8, data []byte) {
		g := fuzzGraph(data)
		s := Sampler{
			Rounds:        1 + int(rounds)%5000,
			Bias:          float64(bias) / 255,
			Shrink:        flags&1 != 0,
			UseEventProbs: flags&2 != 0,
			Seed:          seed,
			Workers:       1 + int(flags>>2)%3,
		}
		ref, err := blockReferenceSample(s, g)
		if err != nil {
			t.Fatal(err)
		}
		fam, err := s.Sample(g)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := familyBytes(fam), familyBytes(ref); got != want {
			t.Fatalf("%+v: shrink word found %d RGs, block reference %d\n got %s\nwant %s", s, len(fam), len(ref), got, want)
		}
	})
}

// TestSamplerRejectsBadProbabilities: a NaN bias, and an event probability
// that is NaN, infinite or outside [0,1], is an error naming the value —
// never a threshold the coin flips silently misread.
func TestSamplerRejectsBadProbabilities(t *testing.T) {
	g := fig4a(t)
	for _, bias := range []float64{math.NaN(), -0.5, 1.5, math.Inf(1)} {
		fam, err := Sampler{Rounds: 1000, Bias: bias, Shrink: true}.Sample(g)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(bias)) {
			t.Errorf("Bias %v: got %d RGs, error %v; want an error naming %v", bias, len(fam), err, bias)
		}
	}
	for _, p := range []float64{math.NaN(), -0.25, 1.5, math.Inf(1)} {
		b := faultgraph.NewBuilder()
		b.SetTop(b.Gate("top", faultgraph.OR, b.BasicProb("a", 0.5), b.BasicProb("c", 0.5)))
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		a, _ := g.Lookup("a")
		g.Node(a).Prob = p
		fam, err := Sampler{Rounds: 1000, UseEventProbs: true}.Sample(g)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(p)) || !strings.Contains(err.Error(), `"a"`) {
			t.Errorf("event probability %v: got %d RGs, error %v; want an error naming the event and %v", p, len(fam), err, p)
		}
	}
}

// BenchmarkSamplerShrink times 10⁵ shrinking rounds at the default fair
// coin — about 30 % of lanes fail — on the Fig. 7 cross-pod deployment of
// a k=8 and a k=16 fat tree, with the default worker count.
func BenchmarkSamplerShrink(b *testing.B) {
	for _, k := range []int{8, 16} {
		g := fatTreeDeployment(b, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (Sampler{Rounds: 100_000, Shrink: true, Seed: int64(i + 1)}).Sample(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
