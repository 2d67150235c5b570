package riskgroup

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
