// Command bench is the repository's benchmark: it boots the audit daemon
// in-process exactly as `indaas serve` wires it, drives it only through
// auditd.Client over loopback TCP, and reports end-to-end and per-layer
// metrics as JSON. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	go run ./bench                                   # every workload, timed and traced
//	go run ./bench -workload fig7_exact -seed 7 -seconds 20 -trace 0
//	go run ./bench -repeat 2                         # the repeatability self-check
//	go run ./bench -smoke                            # ≈2 s windows, no bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix. setup does everything up to the moment the
// first timed operation may begin; run performs the timed phases and the
// correctness checks; ladder is the traced run's outside-in replay.
type workload interface {
	setup(e *env) error
	run(e *env) error
	ladder(e *env) error
	close()
}

type workloadEntry struct {
	workloadDef
	make func() workload
}

var workloads = []workloadEntry{
	{workloadDef{"fig7_exact", "the paper's Fig. 7 point as a service call: cold minimal-RG audits of cross-pod pairs on a k=16 fat tree, where riskgroup, faultgraph and sia do most of the work and the report codec a quarter"},
		func() workload { return &fig7{k: 16} }},
	{workloadDef{"fig7_sampling", "cold failure-sampling audits (k=8, 100,000 rounds): the sampler and evaluator are ~99% of an operation and the report is tiny, so only a sampling-kernel change may move it"},
		func() workload { return &fig7{k: 8, sampling: true} }},
	{workloadDef{"restart_read", "no computation: a restarted durable daemon re-serves 1,024 stored audits from disk, then a hot set from memory, isolating tier probes, store reads and the report encode/HTTP/decode path"},
		func() workload { return &restartRead{} }},
	{workloadDef{"churn_watch", "the write side: 64-record ingest pushes at a paced 5,000 rec/s with a watch probe (depdb, group commit, store appends, diff, dirty analysis, delta re-audit, SSE), then closed-loop saturation"},
		func() workload { return &churnWatch{} }},
}

func findWorkload(name string) (workloadEntry, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadEntry{}, false
}

const (
	defaultSeconds = 20 // BENCHMARK.json's run_seconds
	smokeSeconds   = 2
	setupRuns      = 3 // set-ups per run; setup_s is their median
)

type options struct {
	workload  string
	workloads string
	seed      int64
	seconds   float64
	trace     int
	traceOut  string
	out       string
	repeat    int
	runs      int
	smoke     bool
	child     string
	dir       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line (see BENCHMARK.json)")
	flag.StringVar(&o.workloads, "workloads", "", "comma-separated subset of workloads for a full run (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same operation sequence")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed phases of one run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced ladder and reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as JSON")
	flag.StringVar(&o.out, "out", "", "write the full result document to this file as well as standard output")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many complete sets and check that their medians agree within BENCHMARK.json's bounds")
	flag.IntVar(&o.runs, "runs", 3, "with -repeat: runs of every workload per set, each with its own seed")
	flag.BoolVar(&o.smoke, "smoke", false, "≈2 s windows and a single set-up: exercises every path, enforces no bounds")
	flag.StringVar(&o.child, "child", "", "internal: run one workload in this process (run|setup)")
	flag.StringVar(&o.dir, "dir", ".bench_tmp", "scratch directory for store files; removed on exit")
	flag.Parse()
	if o.smoke && o.seconds == defaultSeconds {
		o.seconds = smokeSeconds
	}

	// An interrupt cancels the context; children are signalled and every
	// process removes its scratch files on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch {
	case o.child != "":
		err = childMain(ctx, o)
	case o.workload != "":
		err = driverMain(ctx, o)
	case o.repeat > 0:
		err = repeatMain(ctx, o)
	default:
		err = fullMain(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// childMain runs one workload in this process and prints its result as the
// last line of standard output.
func childMain(ctx context.Context, o options) error {
	entry, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	traced := o.trace == 1
	e, err := newEnv(o.workload, o.seed, window, traced, o.smoke, o.dir)
	if err != nil {
		return err
	}
	defer e.close()
	e.ctx = ctx
	w := entry.make()
	defer w.close()

	if err := w.setup(e); err != nil {
		return fmt.Errorf("%s set-up: %w", o.workload, err)
	}
	e.set("setup_s", time.Since(procStart).Seconds(), 1)
	if o.child == "run" {
		if err := w.run(e); err != nil {
			return fmt.Errorf("%s: %w", o.workload, err)
		}
		if traced {
			if err := w.ladder(e); err != nil {
				return fmt.Errorf("%s ladder: %w", o.workload, err)
			}
			if o.traceOut != "" {
				if err := e.spans.write(o.traceOut, o.workload, o.seed); err != nil {
					return err
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	blob, err := json.Marshal(&e.res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// spawn runs one workload in a fresh child process, so heap state and the
// RSS high-water mark belong to that workload alone.
func spawn(ctx context.Context, o options, mode string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
		"-trace", strconv.Itoa(o.trace), "-dir", o.dir,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// Interrupt rather than kill, so the child removes its store files.
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 20 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child (%s): %w", o.workload, mode, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s child (%s): unreadable result: %w", o.workload, mode, err)
	}
	return &res, nil
}

// setupsFor is how many set-ups a run performs: setup_s is the median of
// setupRuns, except where it is not reported (traced runs) or not bounded
// (smoke runs).
func setupsFor(o options) int {
	if o.smoke || o.trace == 1 {
		return 1
	}
	return setupRuns
}

// runWorkload performs one complete run of o.workload: the measuring child
// plus further set-up-only children, with setup_s replaced by the median.
func runWorkload(ctx context.Context, o options) (*result, error) {
	res, err := spawn(ctx, o, "run")
	if err != nil {
		return nil, err
	}
	setups := []float64{res.Metrics["setup_s"].Value}
	for len(setups) < setupsFor(o) {
		s, err := spawn(ctx, o, "setup")
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.Metrics["setup_s"].Value)
	}
	res.Metrics["setup_s"] = value{Value: median(setups), Unit: "s", Samples: len(setups)}
	return res, nil
}

// driverMain serves the benchmark driver's contract: one workload, one
// result object as the last line of standard output.
func driverMain(ctx context.Context, o options) error {
	if _, ok := findWorkload(o.workload); !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	res, err := runWorkload(ctx, o)
	if err != nil {
		return err
	}
	list := endToEnd
	if o.trace == 1 {
		list = perLayer
	}
	metrics, err := selectMetrics(res, list, o.trace == 0 && !o.smoke)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed:", f)
	}
	for name, v := range metrics {
		v.Samples = 0 // the driver's line carries value and unit only
		metrics[name] = v
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, max(res.Attempted, 1), res.Failed, metrics}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// selectMetrics picks the listed metrics out of a result. A per-layer
// metric the workload never touched reads 0; a missing end-to-end metric is
// an error when strict.
func selectMetrics(res *result, list []metricDef, strict bool) (map[string]value, error) {
	out := map[string]value{}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok {
			if strict {
				return nil, fmt.Errorf("%s did not report %s", res.Workload, m.Name)
			}
			v = value{Unit: m.Unit}
		}
		out[m.Name] = v
	}
	return out, nil
}

// header describes the host and build a result was measured on.
type header struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	SetupRuns  int     `json:"setup_runs"`
	Smoke      bool    `json:"smoke,omitempty"`
	StartedAt  string  `json:"started_at"`
}

func newHeader(o options) header {
	host, _ := os.Hostname()
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	return header{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clientCount(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), GitRev: rev, Seed: o.seed,
		WindowS: o.seconds, SetupRuns: setupsFor(o), Smoke: o.smoke,
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// selected resolves -workloads to workload names, in the registry's order.
func selected(o options) ([]string, error) {
	var names []string
	if o.workloads == "" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return names, nil
	}
	for _, n := range strings.Split(o.workloads, ",") {
		n = strings.TrimSpace(n)
		if _, ok := findWorkload(n); !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		names = append(names, n)
	}
	return names, nil
}

// workloadReport is one workload's part of the full result document.
type workloadReport struct {
	Why       string           `json:"why"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
}

// fullMain runs every selected workload twice — timed with tracing off,
// then the shorter traced run — and prints one document with every metric.
func fullMain(ctx context.Context, o options) error {
	names, err := selected(o)
	if err != nil {
		return err
	}
	doc := struct {
		Header    header                    `json:"header"`
		Workloads map[string]workloadReport `json:"workloads"`
		Correct   bool                      `json:"correct"`
		Claim     any                       `json:"claim"` // this benchmark claims no gain
	}{Header: newHeader(o), Workloads: map[string]workloadReport{}, Correct: true}
	for _, name := range names {
		o.workload = name
		fmt.Fprintf(os.Stderr, "bench: %s (timed)\n", name)
		o.trace = 0
		timedRes, err := runWorkload(ctx, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: %s (traced)\n", name)
		o.trace = 1
		tracedRes, err := runWorkload(ctx, o)
		if err != nil {
			return err
		}
		e2e, err := selectMetrics(timedRes, endToEnd, !o.smoke)
		if err != nil {
			return err
		}
		layers, _ := selectMetrics(tracedRes, perLayer, false)
		entry, _ := findWorkload(name) // selected() vetted the name
		rep := workloadReport{
			Why: entry.Why, EndToEnd: e2e, PerLayer: layers,
			Attempted: timedRes.Attempted + tracedRes.Attempted,
			Failed:    timedRes.Failed + tracedRes.Failed,
			Failures:  append(timedRes.Failures, tracedRes.Failures...),
		}
		if rep.Failed > 0 {
			doc.Correct = false
		}
		doc.Workloads[name] = rep
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	if o.out != "" {
		if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !doc.Correct {
		return errors.New("a correctness check failed; see the failures in the result")
	}
	return nil
}
