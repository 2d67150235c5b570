// Package sia implements Structural Independence Auditing (§4.1): building
// dependency graphs from DepDB records (Steps 1–6 of §4.1.1), determining
// risk groups with the pluggable algorithms of §4.1.2, ranking them
// (§4.1.3) and producing auditing reports with independence scores (§4.1.4).
package sia

import (
	"context"
	"fmt"
	"indaas/internal/telemetry"
	"math"
	"time"

	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/faultgraph"
	"indaas/internal/ranking"
	"indaas/internal/report"
	"indaas/internal/riskgroup"
)

// GraphSpec describes one redundancy deployment to build a fault graph for
// (the §2 Step 1 client specification, restricted to one deployment).
type GraphSpec struct {
	// Deployment names the configuration; the top event is
	// "<Deployment> fails".
	Deployment string
	// Servers are the redundant data sources (§4.1.1 Step 2).
	Servers []string
	// Needed is the n of an n-of-m deployment: the service survives while
	// any Needed servers are up. 0 means all servers are needed to be
	// considered before failure, i.e. plain m-way redundancy (the top event
	// fires only when every server fails).
	Needed int
	// Kinds selects which dependency kinds to include; empty means all.
	Kinds []deps.Kind
	// Prob optionally assigns failure probabilities to components by
	// normalized name; return faultgraph.ProbUnknown to leave a component
	// unweighted.
	Prob func(component string) float64
}

func (s *GraphSpec) wantKind(k deps.Kind) bool {
	if len(s.Kinds) == 0 {
		return true
	}
	for _, kk := range s.Kinds {
		if kk == k {
			return true
		}
	}
	return false
}

// BuildGraph constructs the deployment's fault graph from DepDB following
// §4.1.1 Steps 1–6:
//
//  1. the top event is the failure of the whole deployment;
//  2. each server's failure is a child of the top event, joined by an AND
//     gate (K-of-N for n-of-m deployments);
//  3. each server fails when its network, hardware or software fails (OR);
//  4. hardware dependencies join the hardware event through an OR gate;
//  5. redundant network routes join through an AND gate, the devices on
//     each route through an OR gate;
//  6. software components join through OR gates, each component an OR over
//     its packages.
func BuildGraph(db depdb.Reader, spec GraphSpec) (*faultgraph.Graph, error) {
	if len(spec.Servers) == 0 {
		return nil, fmt.Errorf("sia: deployment %q has no servers", spec.Deployment)
	}
	if spec.Needed < 0 || spec.Needed > len(spec.Servers) {
		return nil, fmt.Errorf("sia: Needed=%d out of range 0..%d", spec.Needed, len(spec.Servers))
	}
	name := spec.Deployment
	if name == "" {
		name = "deployment"
	}
	b := faultgraph.NewBuilder()
	basic := func(label string) faultgraph.NodeID {
		if spec.Prob != nil {
			return b.BasicProb(label, spec.Prob(label))
		}
		return b.Basic(label)
	}

	var serverNodes []faultgraph.NodeID
	for _, srv := range spec.Servers {
		records := db.QueryAll(srv)
		if len(records) == 0 {
			return nil, fmt.Errorf("sia: no dependency records for server %q", srv)
		}
		var children []faultgraph.NodeID

		// Step 5: network failure = AND over redundant routes, each route
		// an OR over its devices.
		if spec.wantKind(deps.KindNetwork) {
			var routeNodes []faultgraph.NodeID
			for ri, net := range db.Networks(srv) {
				if len(net.Route) == 0 {
					continue
				}
				var devs []faultgraph.NodeID
				for _, d := range net.Route {
					devs = append(devs, basic(d))
				}
				label := fmt.Sprintf("%s route#%d->%s", srv, ri+1, net.Dst)
				routeNodes = append(routeNodes, b.Gate(label, faultgraph.OR, devs...))
			}
			if len(routeNodes) > 0 {
				children = append(children, b.Gate(srv+" network fails", faultgraph.AND, routeNodes...))
			}
		}

		// Step 4: hardware failure = OR over component failures.
		if spec.wantKind(deps.KindHardware) {
			var hwNodes []faultgraph.NodeID
			for _, hw := range db.HardwareOf(srv) {
				hwNodes = append(hwNodes, basic(hw.Dep))
			}
			if len(hwNodes) > 0 {
				children = append(children, b.Gate(srv+" hardware fails", faultgraph.OR, hwNodes...))
			}
		}

		// Step 6: software failure = OR over components; each component an
		// OR over its packages (a package-less program is a basic event).
		if spec.wantKind(deps.KindSoftware) {
			var swNodes []faultgraph.NodeID
			for _, sw := range db.SoftwareOf(srv) {
				if len(sw.Dep) == 0 {
					swNodes = append(swNodes, basic(sw.Pgm))
					continue
				}
				var pkgNodes []faultgraph.NodeID
				for _, p := range sw.Dep {
					pkgNodes = append(pkgNodes, basic(p))
				}
				// Qualify by server like every other gate: the same
				// program running on two redundant servers is distinct
				// failure events (different hosts, same package set).
				swNodes = append(swNodes, b.Gate(srv+" "+sw.Pgm+" fails", faultgraph.OR, pkgNodes...))
			}
			if len(swNodes) > 0 {
				children = append(children, b.Gate(srv+" software fails", faultgraph.OR, swNodes...))
			}
		}

		if len(children) == 0 {
			return nil, fmt.Errorf("sia: server %q has no dependencies of the requested kinds", srv)
		}
		serverNodes = append(serverNodes, b.Gate(srv+" fails", faultgraph.OR, children...))
	}

	// Steps 1–2: top event over the redundant servers.
	var top faultgraph.NodeID
	if spec.Needed == 0 || spec.Needed == len(spec.Servers) {
		top = b.Gate(name+" fails", faultgraph.AND, serverNodes...)
	} else {
		// n-of-m: the deployment fails once m−n+1 servers fail.
		top = b.GateK(name+" fails", len(spec.Servers)-spec.Needed+1, serverNodes...)
	}
	b.SetTop(top)
	return b.Build()
}

// Algorithm selects the RG determination algorithm (§4.1.2).
type Algorithm int

const (
	// MinimalRG is the exact, NP-hard cut-set algorithm.
	MinimalRG Algorithm = iota
	// FailureSampling is the linear-time Monte-Carlo algorithm.
	FailureSampling
)

// String names the algorithm for reports.
func (a Algorithm) String() string {
	switch a {
	case MinimalRG:
		return "minimal-rg"
	case FailureSampling:
		return "failure-sampling"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// RankMode selects the RG ranking algorithm (§4.1.3).
type RankMode int

const (
	// RankBySize uses size-based ranking.
	RankBySize RankMode = iota
	// RankByProb uses failure probability ranking (requires weights).
	RankByProb
)

// Options tunes an audit run.
type Options struct {
	Algorithm Algorithm
	// Rounds is the sampling round count for FailureSampling (default 10⁵).
	Rounds int
	// Seed seeds the sampler (default 1).
	Seed int64
	// Workers is the sampler's parallelism: 0 means one goroutine per CPU,
	// and any count is clamped to the CPUs. It changes speed only, never the
	// detected family (see riskgroup.Sampler.Workers).
	Workers int
	// RankMode picks the ranking algorithm.
	RankMode RankMode
	// ScoreTopN is the n of the §4.1.4 independence score (default: all).
	ScoreTopN int
	// MaxSets / MaxSize bound the minimal RG algorithm (see riskgroup).
	MaxSets int
	MaxSize int
}

// Audit runs the SIA pipeline on a built fault graph: determine RGs, rank,
// score, and assemble the deployment's audit record.
func Audit(g *faultgraph.Graph, spec GraphSpec, opts Options) (*report.DeploymentAudit, error) {
	return AuditContext(context.Background(), g, spec, opts)
}

// AuditContext is Audit under a context: cancellation and deadlines reach
// the RG determination loops (riskgroup.MinimalRGsContext and the parallel
// Sampler workers), so a runaway enumeration aborts promptly with ctx.Err()
// and no partial audit escapes.
func AuditContext(ctx context.Context, g *faultgraph.Graph, spec GraphSpec, opts Options) (*report.DeploymentAudit, error) {
	start := time.Now()
	var fam []riskgroup.RG
	var err error
	switch opts.Algorithm {
	case MinimalRG:
		fam, err = riskgroup.MinimalRGsContext(ctx, g, riskgroup.MinimalOptions{MaxSets: opts.MaxSets, MaxSize: opts.MaxSize})
	case FailureSampling:
		rounds := opts.Rounds
		if rounds == 0 {
			rounds = 100_000
		}
		fam, err = riskgroup.Sampler{Rounds: rounds, Shrink: true, Seed: opts.Seed, Workers: opts.Workers}.SampleContext(ctx, g)
	default:
		return nil, fmt.Errorf("sia: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}

	var ranked []ranking.Ranked
	topProb := math.NaN()
	switch opts.RankMode {
	case RankBySize:
		ranked = ranking.BySize(g, fam)
	case RankByProb:
		var p float64
		ranked, p, err = ranking.ByProb(g, fam)
		if err != nil {
			return nil, err
		}
		topProb = p
	default:
		return nil, fmt.Errorf("sia: unknown rank mode %v", opts.RankMode)
	}

	expected := len(spec.Servers)
	if spec.Needed > 0 {
		expected = len(spec.Servers) - spec.Needed + 1
	}
	audit := &report.DeploymentAudit{
		Deployment:  spec.Deployment,
		Sources:     append([]string(nil), spec.Servers...),
		Expected:    expected,
		FailureProb: topProb,
		Algorithm:   opts.Algorithm.String(),
	}
	for _, r := range ranked {
		audit.RGs = append(audit.RGs, report.RGEntry{
			Components: r.Labels,
			Size:       r.Size,
			Prob:       r.Prob,
			Importance: r.Importance,
		})
		if r.Size < expected {
			audit.Unexpected++
		}
	}
	topN := opts.ScoreTopN
	if topN <= 0 {
		topN = len(ranked)
	}
	mode := ranking.ScoreSize
	if opts.RankMode == RankByProb {
		mode = ranking.ScoreImportance
	}
	audit.Score = ranking.Score(ranked, topN, mode)
	audit.ScoreTopN = topN
	audit.Elapsed = time.Since(start)
	return audit, nil
}

// AuditDeployments builds and audits each alternative deployment and
// returns a ranked report (CompareByFailureProb when probabilities are
// available, CompareBySizeVector otherwise).
func AuditDeployments(db depdb.Reader, title string, specs []GraphSpec, opts Options) (*report.Report, error) {
	return AuditDeploymentsContext(context.Background(), db, title, specs, opts)
}

// AuditDeploymentsContext is AuditDeployments under a context; see
// AuditContext for the cancellation semantics. db is any depdb.Reader — the
// audit service passes an immutable depdb.Snapshot so jobs never contend
// with writers.
func AuditDeploymentsContext(ctx context.Context, db depdb.Reader, title string, specs []GraphSpec, opts Options) (*report.Report, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sia: no deployments to audit")
	}
	tr := telemetry.FromContext(ctx)
	rep := &report.Report{Title: title}
	for _, spec := range specs {
		endBuild := tr.Start("graph-build")
		g, err := BuildGraph(db, spec)
		endBuild()
		if err != nil {
			return nil, err
		}
		audit, err := AuditContext(ctx, g, spec, opts)
		if err != nil {
			return nil, fmt.Errorf("sia: auditing %q: %w", spec.Deployment, err)
		}
		rep.Audits = append(rep.Audits, *audit)
	}
	if opts.RankMode == RankByProb {
		rep.Rank(report.CompareByFailureProb)
	} else {
		rep.Rank(report.CompareBySizeVector)
	}
	return rep, nil
}
