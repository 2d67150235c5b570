// Command indaas runs INDaaS roles from the command line.
//
// Subcommands:
//
//	indaas audit -deps deps.xml -deploy "name=srv1,srv2" [-deploy ...] [flags]
//	    Run a structural independence audit over dependency records loaded
//	    from a Table 1 XML file and print the ranked report.
//
//	indaas source -listen :7001 -deps deps.xml
//	    Serve dependency records to auditing agents (Fig. 5a data source).
//
//	indaas agent -listen :7000
//	    Run an auditing agent accepting client audit requests.
//
//	indaas client -agent host:7000 -source host:7001 -deploy "name=srv1,srv2"
//	    Submit an audit specification to an agent and print the report.
//
//	indaas proxy -listen :7002 -components components.txt
//	    Run a PIA proxy serving a provider's normalized component-set
//	    (Fig. 5b) for P-SOP rounds.
//
//	indaas psop -proxies host1:7002,host2:7002[,...]
//	    Supervise one P-SOP round across running proxies and print the
//	    Jaccard similarity.
//
//	indaas serve -listen :7080 [-deps deps.xml] [-data-dir DIR]
//	    Run the always-on audit service: an HTTP/JSON API that queues audit
//	    jobs on a bounded worker pool and deduplicates identical audits
//	    through a content-addressed result cache (see internal/auditd).
//	    -data-dir makes the service durable: results and ingested DepDB
//	    snapshots survive restarts (see internal/store).
//
//	indaas store {ls|gc|verify} -data-dir DIR
//	    Inspect, garbage-collect or checksum-verify a `serve -data-dir`
//	    persistent store while the daemon is stopped.
//
//	indaas recommend -deps deps.xml -replicas 2 [-strategy exact|greedy|beam]
//	    Search "choose r of n" deployments for the most independent replica
//	    placements (see internal/placement); -server pushes the search to a
//	    running audit service's /v1/recommend endpoint instead.
//
//	indaas private-audit -provider a=a.txt -provider b=b.txt [-server URL]
//	    Run a private independence audit (PIA, §4.2) over provider
//	    component-set files — locally, or through a running audit service's
//	    /v1/private-audits endpoint where results are cached by dataset
//	    fingerprint; -register stores datasets server-side for later
//	    reference by name.
//
//	indaas loadgen -server http://127.0.0.1:7080 -rate 10000 -duration 10s
//	    Replay a simulated agent fleet's dependency churn against a running
//	    audit service and measure sustained ingest throughput, watch
//	    notification latency, and how much re-auditing stayed incremental
//	    (see internal/agentsim).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"indaas/internal/agent"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
	"indaas/internal/sia"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "audit":
		err = cmdAudit(os.Args[2:])
	case "source":
		err = cmdSource(os.Args[2:])
	case "agent":
		err = cmdAgent(os.Args[2:])
	case "client":
		err = cmdClient(os.Args[2:])
	case "proxy":
		err = cmdProxy(os.Args[2:])
	case "psop":
		err = cmdPSOP(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Args[2:])
	case "private-audit":
		err = cmdPrivateAudit(os.Args[2:])
	case "store":
		err = cmdStore(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "indaas: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "indaas: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: indaas <audit|source|agent|client|proxy|psop|serve|recommend|private-audit|store|loadgen> [flags]
run "indaas <subcommand> -h" for the subcommand's flags`)
}

// deployFlag collects repeated -deploy "name=s1,s2[,s3...]" flags.
type deployFlag []agent.DeploymentSpec

func (d *deployFlag) String() string { return fmt.Sprint(*d) }

func (d *deployFlag) Set(v string) error {
	name, servers, ok := strings.Cut(v, "=")
	if !ok || name == "" || servers == "" {
		return fmt.Errorf("want name=server1,server2[,...], got %q", v)
	}
	*d = append(*d, agent.DeploymentSpec{Name: name, Servers: strings.Split(servers, ",")})
	return nil
}

func loadDepsXML(path string) (*depdb.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := deps.DecodeXML(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	db := depdb.New()
	if err := db.Put(records...); err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return db, nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	depsPath := fs.String("deps", "", "Table 1 XML file with dependency records (required)")
	var deployments deployFlag
	fs.Var(&deployments, "deploy", "deployment to audit: name=server1,server2 (repeatable)")
	algo := fs.String("algorithm", "minimal-rg", "minimal-rg or failure-sampling")
	rounds := fs.Int("rounds", 100000, "sampling rounds for failure-sampling")
	workers := fs.Int("workers", 0, "sampling goroutines (0 = one per CPU; speed only, the result does not depend on it)")
	prob := fs.Float64("prob", 0, "uniform component failure probability (>0 enables probability ranking)")
	kinds := fs.String("kinds", "", "comma-separated dependency kinds to consider (network,hardware,software)")
	maxRGs := fs.Int("max-rgs", 10, "risk groups to print per deployment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *depsPath == "" || len(deployments) == 0 {
		return fmt.Errorf("audit requires -deps and at least one -deploy")
	}
	db, err := loadDepsXML(*depsPath)
	if err != nil {
		return err
	}
	var kindList []deps.Kind
	if *kinds != "" {
		for _, name := range strings.Split(*kinds, ",") {
			k, err := deps.KindFromString(name)
			if err != nil {
				return err
			}
			kindList = append(kindList, k)
		}
	}
	opts := sia.Options{Rounds: *rounds, Workers: *workers, RankMode: sia.RankBySize}
	switch *algo {
	case "minimal-rg":
		opts.Algorithm = sia.MinimalRG
	case "failure-sampling":
		opts.Algorithm = sia.FailureSampling
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	var probFn func(string) float64
	if *prob > 0 {
		if *prob > 1 {
			return fmt.Errorf("probability %v out of range", *prob)
		}
		p := *prob
		probFn = func(string) float64 { return p }
		opts.RankMode = sia.RankByProb
	}
	var specs []sia.GraphSpec
	for _, d := range deployments {
		specs = append(specs, sia.GraphSpec{
			Deployment: d.Name, Servers: d.Servers, Kinds: kindList, Prob: probFn,
		})
	}
	rep, err := sia.AuditDeployments(db, "indaas audit", specs, opts)
	if err != nil {
		return err
	}
	return rep.Render(os.Stdout, *maxRGs)
}

func cmdSource(args []string) error {
	fs := flag.NewFlagSet("source", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7001", "listen address")
	depsPath := fs.String("deps", "", "Table 1 XML file with dependency records (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *depsPath == "" {
		return fmt.Errorf("source requires -deps")
	}
	db, err := loadDepsXML(*depsPath)
	if err != nil {
		return err
	}
	src, err := agent.NewSource(*listen, agent.StaticAcquirer(db.Records()))
	if err != nil {
		return err
	}
	defer src.Close()
	fmt.Printf("indaas source serving %d records on %s\n", db.Len(), src.Addr())
	waitForSignal()
	return nil
}

func cmdAgent(args []string) error {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7000", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ag, err := agent.NewAgent(*listen)
	if err != nil {
		return err
	}
	defer ag.Close()
	fmt.Printf("indaas auditing agent on %s\n", ag.Addr())
	waitForSignal()
	return nil
}

func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	agentAddr := fs.String("agent", "127.0.0.1:7000", "auditing agent address")
	sources := fs.String("source", "", "comma-separated data source addresses (required)")
	var deployments deployFlag
	fs.Var(&deployments, "deploy", "deployment to audit: name=server1,server2 (repeatable)")
	algo := fs.String("algorithm", "minimal-rg", "minimal-rg or failure-sampling")
	rounds := fs.Int("rounds", 100000, "sampling rounds")
	prob := fs.Float64("prob", 0, "uniform component failure probability")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sources == "" || len(deployments) == 0 {
		return fmt.Errorf("client requires -source and at least one -deploy")
	}
	cl, err := agent.NewClient(*agentAddr)
	if err != nil {
		return err
	}
	defer cl.Close()
	resp, err := cl.Audit(agent.AuditRequest{
		Title:       "indaas client audit",
		Sources:     strings.Split(*sources, ","),
		Deployments: deployments,
		Algorithm:   *algo,
		Rounds:      *rounds,
		FailureProb: *prob,
	})
	if err != nil {
		return err
	}
	fmt.Printf("=== INDaaS auditing report: %s ===\n", resp.Title)
	for i, a := range resp.Audits {
		line := fmt.Sprintf("#%d %s  score=%.4f  unexpected-RGs=%d", i+1, a.Deployment, a.Score, a.Unexpected)
		if a.FailureProb != nil {
			line += fmt.Sprintf("  Pr(outage)=%.6f", *a.FailureProb)
		}
		fmt.Println(line)
		for j, rg := range a.RGs {
			if j >= 10 {
				fmt.Printf("    … %d more RGs\n", len(a.RGs)-10)
				break
			}
			fmt.Printf("    RG%-3d {%s}\n", j+1, strings.Join(rg, ", "))
		}
	}
	return nil
}

func cmdProxy(args []string) error {
	fs := flag.NewFlagSet("proxy", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7002", "listen address")
	compPath := fs.String("components", "", "file with one normalized component per line (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compPath == "" {
		return fmt.Errorf("proxy requires -components")
	}
	f, err := os.Open(*compPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var components []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			components = append(components, line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	px, err := agent.NewProxy(*listen, components)
	if err != nil {
		return err
	}
	defer px.Close()
	fmt.Printf("indaas PIA proxy with %d components on %s\n", len(components), px.Addr())
	waitForSignal()
	return nil
}

func cmdPSOP(args []string) error {
	fs := flag.NewFlagSet("psop", flag.ExitOnError)
	proxies := fs.String("proxies", "", "comma-separated proxy addresses (required, ≥ 2)")
	runID := fs.String("run", "", "run identifier (default: random)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := strings.Split(*proxies, ",")
	if *proxies == "" || len(addrs) < 2 {
		return fmt.Errorf("psop requires -proxies with at least two addresses")
	}
	id := *runID
	if id == "" {
		id = fmt.Sprintf("psop-%d", os.Getpid())
	}
	inter, union, err := agent.SupervisePSOP(id, addrs)
	if err != nil {
		return err
	}
	rep := report.PIAReport{Title: "P-SOP round " + id}
	j := 0.0
	if union > 0 {
		j = float64(inter) / float64(union)
	}
	rep.Entries = append(rep.Entries, report.PIAEntry{Providers: addrs, Jaccard: j})
	fmt.Printf("|intersection| = %d, |union| = %d\n", inter, union)
	return rep.Render(os.Stdout)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
