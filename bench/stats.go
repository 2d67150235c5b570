package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the "percentile" is one or two outliers and moves with every run.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of an ascending
// sample. ok is false when fewer than minBeyond samples lie beyond the
// reported one; callers must then not report the value under that name.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps 0.9*100 = 90.00000000000001 from rounding up to 91.
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// maxSlices caps how finely a phase is cut for the sliced statistics.
const maxSlices = 10

// slicedPercentile cuts a phase's samples, in completion order, into as
// many equal consecutive slices as still leave minBeyond samples beyond p
// in each (at most maxSlices), takes the p-quantile of each slice and
// returns the median of those. A host hiccup of a second or two then moves
// one slice, not the result; with too few samples for two slices it is the
// plain percentile. ok is false when even one slice cannot carry p.
func slicedPercentile(inOrder []float64, p float64) (v float64, ok bool) {
	need := int(math.Ceil(minBeyond/(1-p) - 1e-9)) // smallest n with minBeyond beyond p
	k := len(inOrder) / need
	if k > maxSlices {
		k = maxSlices
	}
	if k < 2 {
		s := append([]float64(nil), inOrder...)
		sort.Float64s(s)
		return percentile(s, p)
	}
	per := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		s := append([]float64(nil), inOrder[i*len(inOrder)/k:(i+1)*len(inOrder)/k]...)
		sort.Float64s(s)
		q, _ := percentile(s, p) // every slice holds at least need samples
		per = append(per, q)
	}
	return median(per), true
}

// slicedRate is completions per second as the median over equal time
// slices of a phase, given each completion's offset from the phase start:
// the throughput counterpart of slicedPercentile. Slices hold at least 100
// completions each, so that counting whole operations costs under 1%; a
// phase too short for two such slices reports the plain ratio.
func slicedRate(ends []time.Duration, elapsed time.Duration) float64 {
	if elapsed <= 0 || len(ends) == 0 {
		return 0
	}
	k := len(ends) / 100
	if k > maxSlices {
		k = maxSlices
	}
	if k < 2 {
		return float64(len(ends)) / elapsed.Seconds()
	}
	counts := make([]float64, k)
	width := elapsed / time.Duration(k)
	for _, t := range ends {
		i := int(t / width)
		if i >= k {
			i = k - 1
		}
		counts[i]++
	}
	return median(counts) / width.Seconds()
}

// median is the plain middle value (mean of the two middles for even n); it
// summarises repeated whole-run measurements such as set-up time, where the
// ten-beyond rule for latency percentiles does not apply.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is (Q3-Q1)/median with the exclusive-method quartiles
// Python's statistics.quantiles(values, n=4) uses, so the self-check here
// reads the same as the driver's acceptance rule. It needs two values.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 3 cut points
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// ms converts latencies to milliseconds, keeping their order.
func ms(lats []time.Duration) []float64 {
	out := make([]float64, len(lats))
	for i, d := range lats {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// mix is SplitMix64 over (seed, i): a stateless, goroutine-safe source for
// "the i-th choice under this seed", so an operation's inputs depend only on
// its index and never on which client goroutine drew it.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
