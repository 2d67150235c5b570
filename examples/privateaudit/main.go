// Privateaudit reproduces the paper's third case study (§6.2.3 and Table 2)
// through the served PIA flow: four clouds — each running a different
// key-value store — register their software dependency closures with an
// audit service, then ask which redundancy deployment shares the fewest
// packages, without any cloud's package list ever appearing in an audit
// request or response.
//
//	go run ./examples/privateaudit [-cleartext]
//
// The walk-through exercises the full /v1 surface: POST /v1/providers to
// register each dataset (the service answers with a content fingerprint,
// never echoing components), POST /v1/private-audits referencing the
// datasets by name, and a second identical submission that is answered from
// the content-addressed cache — fingerprints match, so no protocol rounds
// run at all.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"

	"flag"

	"indaas/internal/auditd"
	"indaas/internal/swpkg"
)

func main() {
	cleartext := flag.Bool("cleartext", false, "skip the private protocol (trusted-auditor baseline)")
	flag.Parse()

	svc := auditd.New(auditd.Config{Workers: 2})
	defer svc.Shutdown(context.Background())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := auditd.NewClient(ts.URL, http.DefaultClient)
	ctx := context.Background()

	// Each cloud registers its apt-rdepends package closure once. The
	// service stores the normalized set and publishes only a fingerprint.
	u, roots := swpkg.KeyValueStoreUniverse()
	for i, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			log.Fatal(err)
		}
		comps := make([]string, len(ids))
		for j, id := range ids {
			comps[j] = "pkg:" + id // §4.2.3 normalization: name+version
		}
		info, err := client.RegisterProvider(ctx, fmt.Sprintf("Cloud%d", i+1), comps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-6s (%s): %4d packages, fingerprint %.12s…\n",
			info.Name, root, info.Components, info.Fingerprint)
	}

	protocol := "p-sop"
	if *cleartext {
		protocol = "cleartext"
	}
	// Every two-way pair plus every three-way deployment, in one batched
	// job. Providers are referenced by name only.
	req := &auditd.PrivateAuditRequest{
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
		Protocol: protocol,
	}
	fmt.Printf("\nsubmitting private audit (%s, %d deployments)…\n", protocol, len(req.Deployments))
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
	res, err := client.PrivateAuditResult(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}

	// Render the ranking next to the paper's Table 2 values and verify both
	// agree (±0.0035 — see internal/exp for why a tolerance is inherent).
	paper := swpkg.Table2Paper()
	fmt.Printf("\nrank  deployment                  Jaccard  paper\n")
	for i, e := range res.Entries {
		var idx []string
		for _, name := range e.Providers {
			idx = append(idx, strings.TrimPrefix(name, "Cloud"))
		}
		sort.Strings(idx)
		want := paper[strings.Join(idx, "+")]
		got := math.NaN()
		if e.Jaccard != nil {
			got = *e.Jaccard
		}
		fmt.Printf("#%-4d %-27s %.4f   %.4f\n", i+1, strings.Join(e.Providers, " & "), got, want)
		if math.Abs(got-want) > 0.0035 {
			fmt.Printf("\nWARNING: J(%s) deviates from the paper\n", strings.Join(idx, "+"))
			os.Exit(1)
		}
	}
	fmt.Printf("all %d similarities match the paper's Table 2 (%d bytes on the wire)\n",
		res.Pairs, res.BytesSent)

	// Resubmit the identical audit: the cache key is built from the dataset
	// fingerprints, so the service answers instantly without rerunning a
	// single protocol round.
	before := svc.Stats()
	st2, err := client.PrivateAudit(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	after := svc.Stats()
	if after.Computations != before.Computations && st2.State == auditd.StateDone {
		log.Fatalf("expected a cache hit, but computations went %d → %d", before.Computations, after.Computations)
	}
	fmt.Printf("\nresubmitted: job %s answered %s from cache (computations still %d, cache hits %d)\n",
		st2.ID, st2.State, after.Computations, after.CacheHits)
}
