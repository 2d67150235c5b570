package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"indaas/internal/auditd"
)

// cmdRecommend searches the deployment space for the most independent
// replica placements — on an in-process audit service over a Table 1 XML
// file, or through a running audit service's /v1/recommend endpoint.
func cmdRecommend(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	depsPath := fs.String("deps", "", "Table 1 XML file with dependency records (required unless -server)")
	server := fs.String("server", "", "audit service base URL (e.g. http://127.0.0.1:7080); empty = an in-process service over -deps")
	nodes := fs.String("nodes", "", "comma-separated candidate nodes (default: every subject in the records)")
	fixed := fs.String("fixed", "", "comma-separated nodes pinned into every deployment")
	replicas := fs.Int("replicas", 2, "deployment size, pinned nodes included")
	topK := fs.Int("top", 0, "ranked deployments to return (0 = the service default, 3)")
	strategy := fs.String("strategy", "auto", "auto, exact, greedy or beam")
	beamWidth := fs.Int("beam", 0, "beam width (0 = default)")
	algo := fs.String("algorithm", "minimal-rg", "minimal-rg or failure-sampling, per candidate audit")
	rounds := fs.Int("rounds", 100000, "sampling rounds for failure-sampling")
	prob := fs.Float64("prob", 0, "uniform component failure probability (>0 ranks by Pr(outage))")
	kinds := fs.String("kinds", "", "comma-separated dependency kinds (network,hardware,software)")
	workers := fs.Int("workers", 0, "concurrent candidate audits (0 = one per CPU)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	splitList := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(s, ",")
	}
	// One wire request serves both modes: remotely it is POSTed verbatim,
	// locally it runs on an in-process service over the -deps records.
	req := &auditd.RecommendRequest{
		Title:       "indaas recommend",
		Nodes:       splitList(*nodes),
		Fixed:       splitList(*fixed),
		Replicas:    *replicas,
		TopK:        *topK,
		Strategy:    *strategy,
		BeamWidth:   *beamWidth,
		Kinds:       splitList(*kinds),
		Algorithm:   *algo,
		Rounds:      *rounds,
		FailureProb: *prob,
		Workers:     *workers,
	}
	if *server != "" {
		return recommendRemote(out, *server, req, *depsPath)
	}

	if *depsPath == "" {
		return fmt.Errorf("recommend requires -deps (or -server)")
	}
	db, err := loadDepsXML(*depsPath)
	if err != nil {
		return err
	}
	res, err := runJob[*auditd.RecommendResponse](db, func(s *auditd.Server) (auditd.JobStatus, error) {
		return s.Recommend(req)
	})
	if err != nil {
		return err
	}
	return renderRecommendation(out, res)
}

// recommendRemote submits the search to a running audit service, long-polls
// it to completion and renders the ranking. When depsPath is set, the
// records are ingested through /v1/depdb first.
func recommendRemote(out io.Writer, base string, req *auditd.RecommendRequest, depsPath string) error {
	ctx := context.Background()
	c := auditd.NewClient(base, nil)
	if depsPath != "" {
		db, err := loadDepsXML(depsPath)
		if err != nil {
			return err
		}
		resp, err := c.Ingest(ctx, auditd.WireRecords(db.Records()))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "ingested %d records (db fingerprint %.12s…)\n", resp.Added, resp.Fingerprint)
	}
	st, err := c.Recommend(ctx, req)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "job %s (%s, cache key %.12s…)\n", st.ID, st.State, st.CacheKey)
	end, err := c.WaitDone(ctx, st.ID)
	if err != nil {
		return err
	}
	if end.State != auditd.StateDone {
		return fmt.Errorf("job %s ended %s: %s", end.ID, end.State, end.Error)
	}
	res, err := c.RecommendResult(ctx, st.ID)
	if err != nil {
		return err
	}
	return renderRecommendation(out, res)
}

// renderRecommendation prints the ranking table. Evaluated counts every
// candidate audit run — the heuristics also audit partial deployments, so
// it is not a fraction of the full deployment space.
func renderRecommendation(out io.Writer, res *auditd.RecommendResponse) error {
	fmt.Fprintf(out, "=== INDaaS placement recommendation (%s: %d candidate audits over a %d-deployment space) ===\n",
		res.Strategy, res.Evaluated, res.TotalCandidates)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tdeployment\tRGs\tsize-1\tscore\tPr(outage)")
	for _, r := range res.Rankings {
		size1 := 0
		if len(r.SizeVector) > 0 {
			size1 = r.SizeVector[0]
		}
		probCol := "-"
		if r.FailureProb != nil {
			probCol = fmt.Sprintf("%.6f", *r.FailureProb)
		}
		fmt.Fprintf(w, "#%d\t%s\t%d\t%d\t%.4f\t%s\n",
			r.Rank, strings.Join(r.Nodes, " + "), r.RGCount, size1, r.Score, probCol)
	}
	return w.Flush()
}
