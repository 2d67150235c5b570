package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatMain is the repeatability self-check: o.repeat complete sets, each
// running every selected workload o.runs times (tracing off, another seed
// each run, workload order alternated). It prints, per workload and
// end-to-end metric, the set medians, their largest relative difference
// from the first set and each set's quartile spread, and fails when two
// sets of the same commit differ by more than the metric's own bound.
func repeatMain(ctx context.Context, o options) error {
	names, err := selected(o)
	if err != nil {
		return err
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("the self-check reads its bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least two sets to compare")
	}

	// values[set][workload][metric] = one value per run.
	values := make([]map[string]map[string][]float64, o.repeat)
	failed := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for run := 0; run < o.runs; run++ {
			order := append([]string(nil), names...)
			if (set+run)%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, name := range order {
				ro := o
				ro.workload, ro.trace, ro.seed = name, 0, o.seed+int64(run)
				fmt.Fprintf(os.Stderr, "bench: set %d run %d: %s (seed %d)\n", set+1, run+1, name, ro.seed)
				res, err := runWorkload(ctx, ro)
				if err != nil {
					return err
				}
				failed += res.Failed
				for _, f := range res.Failures {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d failed: %s\n", name, ro.seed, f)
				}
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for _, m := range endToEnd {
					values[set][name][m.Name] = append(values[set][name][m.Name], res.Metrics[m.Name].Value)
				}
			}
		}
	}

	var b strings.Builder
	h := newHeader(o)
	fmt.Fprintf(&b, "# Repeatability of the benchmark on one commit\n\n")
	fmt.Fprintf(&b, "`go run ./bench -repeat %d -runs %d -seconds %g -seed %d` on %s (%d CPUs, GOMAXPROCS %d, %s, rev %s), %d client goroutine(s).\n\n",
		o.repeat, o.runs, o.seconds, o.seed, h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitRev, h.Clients)
	fmt.Fprintf(&b, "Each set runs every workload %d times, each run with its own seed; a cell is the set's median, spread is (Q3−Q1)/median within the set (Python's `statistics.quantiles(values, n=4)`), diff is the largest relative difference of a later set's median from the first set's.\n\n", o.runs)
	fmt.Fprintf(&b, "| workload | metric | unit |")
	for set := range values {
		fmt.Fprintf(&b, " set %d | spread %d |", set+1, set+1)
	}
	fmt.Fprintf(&b, " diff | bound | ok |\n|---|---|---|")
	for range values {
		fmt.Fprintf(&b, "---:|---:|")
	}
	fmt.Fprintf(&b, "---:|---:|---|\n")
	bad := 0
	for _, name := range names {
		for _, m := range endToEnd {
			fmt.Fprintf(&b, "| %s | %s | %s |", name, m.Name, m.Unit)
			first, diff := 0.0, 0.0
			for set := range values {
				v := values[set][name][m.Name]
				med := median(v)
				if set == 0 {
					first = med
				} else if first != 0 {
					diff = math.Max(diff, math.Abs(med-first)/math.Abs(first))
				}
				fmt.Fprintf(&b, " %.4g | %.1f%% |", med, 100*quartileSpread(v))
			}
			ok := "yes"
			if diff > bounds[m.Name] {
				ok, bad = "NO", bad+1
			}
			fmt.Fprintf(&b, " %.1f%% | %.0f%% | %s |\n", 100*diff, 100*bounds[m.Name], ok)
		}
	}
	fmt.Fprintf(&b, "\nFailed operations and checks over all runs: %d.\n", failed)
	fmt.Print(b.String())
	if o.out != "" {
		if err := os.WriteFile(o.out, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 || failed > 0 {
		return fmt.Errorf("%d metric(s) differ between sets by more than their bound, %d failed operation(s)", bad, failed)
	}
	return nil
}
