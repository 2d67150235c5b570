package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"indaas/internal/auditd"
)

// providerFlag collects repeated name=value flags: -provider
// "name=components.txt" and -proxy "name=http://host:port".
type providerFlag []struct{ name, value string }

func (p *providerFlag) String() string { return fmt.Sprint(*p) }

func (p *providerFlag) Set(v string) error {
	name, value, ok := strings.Cut(v, "=")
	if !ok || name == "" || value == "" {
		return fmt.Errorf("want name=value, got %q", v)
	}
	*p = append(*p, struct{ name, value string }{name, value})
	return nil
}

// listFlag collects repeated comma-separated list flags (-deploy "a,b").
type listFlag [][]string

func (l *listFlag) String() string { return fmt.Sprint(*l) }

func (l *listFlag) Set(v string) error {
	parts := strings.Split(v, ",")
	if len(parts) < 2 {
		return fmt.Errorf("want at least two comma-separated provider names, got %q", v)
	}
	*l = append(*l, parts)
	return nil
}

// loadComponents reads a one-component-per-line file, skipping blanks and
// '#' comments — the same format `indaas proxy -components` serves.
func loadComponents(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
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
	return components, sc.Err()
}

// providerComponents loads a -provider file. A file with no components is
// refused: the request would carry the name alone, which the service reads
// as a reference to a dataset it holds under that name.
func providerComponents(name, path string) ([]string, error) {
	components, err := loadComponents(path)
	if err == nil && len(components) == 0 {
		err = fmt.Errorf("private-audit: -provider %s=%s: the file lists no components", name, path)
	}
	return components, err
}

// cmdPrivateAudit runs a private independence audit (PIA, §4.2) — on an
// in-process audit service, or through a running audit service's
// /v1/private-audits endpoint, which caches results by the providers'
// dataset fingerprints.
func cmdPrivateAudit(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("private-audit", flag.ExitOnError)
	server := fs.String("server", "", "audit service base URL (e.g. http://127.0.0.1:7080); empty = an in-process service over -provider")
	var providers providerFlag
	fs.Var(&providers, "provider", "provider dataset: name=components.txt (repeatable)")
	var proxies providerFlag
	fs.Var(&proxies, "proxy", "provider proxy to register on the server: name=http://host:port (repeatable); the server then never holds its components")
	uses := fs.String("use", "", "comma-separated names of datasets already registered on the server")
	register := fs.Bool("register", false, "register -provider datasets on the server first and reference them by name")
	var deployments listFlag
	fs.Var(&deployments, "deploy", "deployment to audit: providerA,providerB[,...] (repeatable; default: every pair)")
	workers := fs.Int("workers", 0, "concurrent deployment audits and P-SOP encryption shards (0 = one per CPU)")
	title := fs.String("title", "indaas private audit", "report title")
	timeout := fs.Duration("timeout", 0, "job timeout (0 = service default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		// A bool flag given a value (-register x=y) strands everything after
		// it as positional arguments; refuse rather than silently drop them.
		return fmt.Errorf("private-audit: unexpected arguments %q (note: -register takes no value; datasets come from -provider)", fs.Args())
	}

	// One wire request serves both modes: remotely it is POSTed verbatim,
	// locally it runs on an in-process service. Where each dataset lives
	// picks the protocol: held sets are counted in cleartext, proxied ones
	// run P-SOP.
	req := &auditd.PrivateAuditRequest{
		Title:       *title,
		Deployments: deployments,
		Workers:     *workers,
		TimeoutMS:   timeout.Milliseconds(),
	}
	for _, name := range strings.Split(*uses, ",") {
		if name != "" {
			req.Providers = append(req.Providers, auditd.ProviderWire{Name: name})
		}
	}
	if *server == "" {
		if *uses != "" || *register || len(proxies) > 0 {
			return fmt.Errorf("private-audit: -use, -register and -proxy need -server")
		}
		if len(providers) < 2 {
			return fmt.Errorf("private-audit requires at least two -provider datasets (or -server with -use)")
		}
		for _, p := range providers {
			components, err := providerComponents(p.name, p.value)
			if err != nil {
				return err
			}
			req.Providers = append(req.Providers, auditd.ProviderWire{Name: p.name, Components: components})
		}
		resp, err := runJob[*auditd.PrivateAuditResponse](nil, func(s *auditd.Server) (auditd.JobStatus, error) {
			return s.PrivateAudit(req)
		})
		if err != nil {
			return err
		}
		return renderPrivateAudit(out, resp)
	}

	ctx := context.Background()
	c := auditd.NewClient(*server, nil)
	for _, p := range proxies {
		info, err := c.RegisterProxy(ctx, p.name, p.value)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "registered proxy %s: %d components, fingerprint %.12s…\n", info.Name, info.Components, info.Fingerprint)
		req.Providers = append(req.Providers, auditd.ProviderWire{Name: p.name})
	}
	for _, p := range providers {
		components, err := providerComponents(p.name, p.value)
		if err != nil {
			return err
		}
		if *register {
			info, err := c.RegisterProvider(ctx, p.name, components)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "registered %s: %d components, fingerprint %.12s…\n", info.Name, info.Components, info.Fingerprint)
			req.Providers = append(req.Providers, auditd.ProviderWire{Name: p.name})
		} else {
			req.Providers = append(req.Providers, auditd.ProviderWire{Name: p.name, Components: components})
		}
	}
	st, err := c.PrivateAudit(ctx, req)
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
	resp, err := c.PrivateAuditResult(ctx, st.ID)
	if err != nil {
		return err
	}
	return renderPrivateAudit(out, resp)
}

// renderPrivateAudit prints the ranked independence table, most independent
// (lowest Jaccard similarity) deployment first.
func renderPrivateAudit(out io.Writer, res *auditd.PrivateAuditResponse) error {
	fmt.Fprintf(out, "=== INDaaS private audit (%d deployments) ===\n", res.Pairs)
	for _, p := range res.Providers {
		fmt.Fprintf(out, "provider %s: %d components, fingerprint %.12s…\n", p.Name, p.Components, p.Fingerprint)
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tdeployment\tjaccard\telapsed")
	for i, e := range res.Entries {
		jcol := "-"
		if e.Jaccard != nil {
			jcol = fmt.Sprintf("%.4f", *e.Jaccard)
		}
		fmt.Fprintf(w, "#%d\t%s\t%s\t%s\n", i+1, strings.Join(e.Providers, " + "), jcol,
			time.Duration(e.ElapsedNS).Round(time.Microsecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if res.PairsPerSec != nil {
		fmt.Fprintf(out, "throughput: %.1f pairs/sec\n", *res.PairsPerSec)
	}
	return nil
}
