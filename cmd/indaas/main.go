// Command indaas runs INDaaS roles from the command line.
//
// Subcommands:
//
//	indaas audit -deps deps.xml -deploy "name=srv1,srv2" [-deploy ...] [flags]
//	    Run a structural independence audit over dependency records loaded
//	    from a Table 1 XML file and print the ranked report.
//
//	indaas proxy -listen :7002 -components components.txt
//	    Run a provider's P-SOP proxy (Fig. 5b) over HTTP: one ring party
//	    keeping the provider's normalized component-set, for an audit
//	    service that registers its endpoint (private-audit -proxy).
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
//	    component-set files, or through a running audit service's
//	    /v1/private-audits endpoint where results are cached by dataset
//	    fingerprint; -register stores datasets server-side for later
//	    reference by name, and -proxy NAME=URL registers a provider's proxy
//	    so the service supervises the P-SOP ring without the components.
//	    Sets the auditor holds are counted in cleartext; a deployment with a
//	    proxied provider runs P-SOP.
//
//	indaas loadgen -server http://127.0.0.1:7080 -rate 10000 -duration 10s
//	    Replay a simulated agent fleet's dependency churn against a running
//	    audit service and measure sustained ingest throughput, watch
//	    notification latency, and how much re-auditing stayed incremental
//	    (see internal/agentsim).
//
// audit, and recommend and private-audit without -server, run their one job
// on an in-process audit service (internal/auditd), so they apply exactly
// the service's option rules and defaults and fail as a served job fails.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "audit":
		err = cmdAudit(os.Stdout, os.Args[2:])
	case "proxy":
		err = cmdProxy(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "recommend":
		err = cmdRecommend(os.Stdout, os.Args[2:])
	case "private-audit":
		err = cmdPrivateAudit(os.Stdout, os.Args[2:])
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
	fmt.Fprintln(os.Stderr, `usage: indaas <audit|proxy|serve|recommend|private-audit|store|loadgen> [flags]
run "indaas <subcommand> -h" for the subcommand's flags`)
}

// deployFlag collects repeated -deploy "name=s1,s2[,s3...]" flags.
type deployFlag []auditd.DeploymentWire

func (d *deployFlag) String() string { return fmt.Sprint(*d) }

func (d *deployFlag) Set(v string) error {
	name, servers, ok := strings.Cut(v, "=")
	if !ok || name == "" || servers == "" {
		return fmt.Errorf("want name=server1,server2[,...], got %q", v)
	}
	*d = append(*d, auditd.DeploymentWire{Name: name, Servers: strings.Split(servers, ",")})
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

// cmdAudit runs one audit over the loaded records on an in-process audit
// service (runJob).
func cmdAudit(w io.Writer, args []string) error {
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
	if *kinds != "" {
		for i := range deployments {
			deployments[i].Kinds = strings.Split(*kinds, ",")
		}
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0) // the service's own default is one
	}
	rep, err := runJob[*report.Report](db, func(s *auditd.Server) (auditd.JobStatus, error) {
		return s.Submit(&auditd.SubmitRequest{
			Title:          "indaas audit",
			Deployments:    deployments,
			Algorithm:      *algo,
			Rounds:         *rounds,
			SamplerWorkers: *workers,
			FailureProb:    *prob,
		})
	})
	if err != nil {
		return err
	}
	return rep.Render(w, *maxRGs)
}

// runJob runs one job on an in-process audit service over db (nil when the
// request carries its own data) and returns its result: submit, wait, check
// the end state and fetch, as a client of a served job does. A command
// without -server thereby applies exactly the service's rules and defaults.
func runJob[T any](db *depdb.DB, submit func(*auditd.Server) (auditd.JobStatus, error)) (T, error) {
	var zero T
	ctx := context.Background()
	s := auditd.New(auditd.Config{DB: db})
	defer s.Shutdown(ctx)
	st, err := submit(s)
	if err != nil {
		return zero, err
	}
	if st, err = s.WaitDone(ctx, st.ID, math.MaxInt64); err != nil {
		return zero, err
	}
	if st.State != auditd.StateDone {
		return zero, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		return zero, err
	}
	out, ok := res.(T)
	if !ok {
		return zero, fmt.Errorf("job %s returned a %T, want a %T", st.ID, res, zero)
	}
	return out, nil
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
	components, err := loadComponents(*compPath)
	if err != nil {
		return err
	}
	h, err := auditd.NewProxy(components)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	fmt.Printf("indaas P-SOP proxy with %d components on http://%s\n", len(components), ln.Addr())
	waitForSignal()
	return srv.Close()
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
