// Privateaudit reproduces the paper's third case study (§6.2.3 and Table 2)
// through the served PIA flow: four clouds — each running a different
// key-value store — ask an audit service which redundancy deployment shares
// the fewest packages, without any cloud's package list ever appearing in an
// audit request or response.
//
//	go run ./examples/privateaudit [-cleartext]
//
// It runs Table 2 twice. First in the trusted-auditor mode: each cloud
// registers its package list under POST /v1/providers (the service answers
// with a content fingerprint, never echoing components), POST
// /v1/private-audits references the datasets by name, the service — which
// holds every list — counts the overlaps in cleartext, and a second
// identical submission is answered from the content-addressed cache. Then in
// the paper's own trust model (§4.2, Fig. 5b): each cloud keeps its list
// behind its own P-SOP proxy, a fresh service registers only the proxies'
// endpoints and supervises every ring over them, and the ten similarities
// must equal the first run's.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"

	"indaas/internal/auditd"
	"indaas/internal/swpkg"
)

func main() {
	cleartext := flag.Bool("cleartext", false, "run only the trusted-auditor audit, counted in cleartext (no proxies, no P-SOP)")
	flag.Parse()
	ctx := context.Background()

	// Each cloud's apt-rdepends package closure, normalized per §4.2.3.
	u, roots := swpkg.KeyValueStoreUniverse()
	sets := make([][]string, len(roots))
	for i, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range ids {
			sets[i] = append(sets[i], "pkg:"+id) // name+version
		}
	}

	fmt.Println("== trusted auditor: the service holds each cloud's package list ==")
	svc, client := serve()
	defer svc.Shutdown(ctx)
	for i, comps := range sets {
		info, err := client.RegisterProvider(ctx, cloud(i), comps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-6s (%s): %4d packages, fingerprint %.12s…\n",
			info.Name, roots[i], info.Components, info.Fingerprint)
	}
	req := table2Request()
	held := audit(client, req)

	// Resubmit the identical audit: the cache key is built from the dataset
	// fingerprints, so the service answers instantly without recounting.
	before := svc.Stats()
	st2, err := client.PrivateAudit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	after := svc.Stats()
	if after.Computations != before.Computations && st2.State == auditd.StateDone {
		log.Fatalf("expected a cache hit, but computations went %d → %d", before.Computations, after.Computations)
	}
	fmt.Printf("resubmitted: job %s answered %s from cache (computations still %d, cache hits %d)\n",
		st2.ID, st2.State, after.Computations, after.CacheHits)
	if *cleartext {
		return
	}

	fmt.Println("\n== proxied: each cloud keeps its list behind its own P-SOP proxy ==")
	svc2, client2 := serve()
	defer svc2.Shutdown(ctx)
	for i, comps := range sets {
		proxy, err := auditd.NewProxy(comps)
		if err != nil {
			log.Fatal(err)
		}
		ps := httptest.NewServer(proxy)
		defer ps.Close()
		info, err := client2.RegisterProxy(ctx, cloud(i), ps.URL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-6s proxy %s: %4d packages, fingerprint %.12s…\n",
			info.Name, ps.URL, info.Components, info.Fingerprint)
	}
	proxied := audit(client2, req)
	for key, j := range held {
		if proxied[key] != j {
			log.Fatalf("J(%s) is %.4f over proxies, %.4f held by the service", key, proxied[key], j)
		}
	}
	fmt.Printf("the proxied ring gives the same %d similarities\n", len(proxied))
}

func cloud(i int) string { return fmt.Sprintf("Cloud%d", i+1) }

// serve starts an in-process audit service and a client for it.
func serve() (*auditd.Server, *auditd.Client) {
	svc := auditd.New(auditd.Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	return svc, auditd.NewClient(ts.URL, http.DefaultClient)
}

// table2Request asks for every two-way pair plus every three-way deployment
// in one batched job, referencing the providers by name only.
func table2Request() *auditd.PrivateAuditRequest {
	return &auditd.PrivateAuditRequest{
		Title: "Table 2 redundancy deployments",
		Providers: []auditd.ProviderWire{
			{Name: "Cloud1"}, {Name: "Cloud2"}, {Name: "Cloud3"}, {Name: "Cloud4"},
		},
		Deployments: [][]string{
			{"Cloud1", "Cloud2"}, {"Cloud1", "Cloud3"}, {"Cloud1", "Cloud4"},
			{"Cloud2", "Cloud3"}, {"Cloud2", "Cloud4"}, {"Cloud3", "Cloud4"},
			{"Cloud1", "Cloud2", "Cloud3"}, {"Cloud1", "Cloud2", "Cloud4"},
			{"Cloud1", "Cloud3", "Cloud4"}, {"Cloud2", "Cloud3", "Cloud4"},
		},
	}
}

// audit runs req, renders the ranking next to the paper's Table 2 values,
// verifies both agree (±0.0035 — see internal/exp for why a tolerance is
// inherent) and returns the similarities by deployment ("1+2").
func audit(client *auditd.Client, req *auditd.PrivateAuditRequest) map[string]float64 {
	ctx := context.Background()
	fmt.Printf("submitting private audit (%d deployments)…\n", len(req.Deployments))
	st, err := client.PrivateAudit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	if st, err = client.WaitDone(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	if st.State != auditd.StateDone {
		log.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	tc := st.TraceCounts
	fmt.Printf("%d deployments counted in cleartext, %d over P-SOP (%d bytes on the wire)\n",
		tc["pia_cleartext_deployments"], tc["pia_psop_deployments"], tc["psop_bytes_sent"])
	res, err := client.PrivateAuditResult(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	paper := swpkg.Table2Paper()
	out := make(map[string]float64, len(res.Entries))
	fmt.Printf("rank  deployment                  Jaccard  paper\n")
	for i, e := range res.Entries {
		var idx []string
		for _, name := range e.Providers {
			idx = append(idx, strings.TrimPrefix(name, "Cloud"))
		}
		sort.Strings(idx)
		key := strings.Join(idx, "+")
		got := math.NaN()
		if e.Jaccard != nil {
			got = *e.Jaccard
		}
		out[key] = got
		fmt.Printf("#%-4d %-27s %.4f   %.4f\n", i+1, strings.Join(e.Providers, " & "), got, paper[key])
		if math.Abs(got-paper[key]) > 0.0035 {
			fmt.Printf("\nWARNING: J(%s) deviates from the paper\n", key)
			os.Exit(1)
		}
	}
	fmt.Printf("all %d similarities match the paper's Table 2\n", res.Pairs)
	return out
}
