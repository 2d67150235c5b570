// Placement walks the independence-maximizing deployment recommender over
// the Fig. 6b lab cloud (§6.2.2): one probe VM per physical server turns
// "where should two Riak replicas go?" into a choose-2-of-4 search that runs
// as jobs on an in-process audit service through POST /v1/depdb + POST
// /v1/recommend. The exact, greedy and beam strategies must agree on a
// cross-switch optimum; the example exits 1 if any strategy's top pair
// shares a switch.
//
//	go run ./examples/placement
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/cloudsim"
	"indaas/internal/deps"
)

func main() {
	// The Fig. 6b substrate: Server1/Server2 behind Switch1, Server3/Server4
	// behind Switch2, both switches through redundant cores. One probe VM
	// per server models "a Riak replica hosted there".
	cloud := cloudsim.FourServerLab(1)
	var records []deps.Record
	var pool []string
	switchOf := map[string]string{}
	for _, srv := range cloud.Servers {
		probe := "riak@" + srv.Name
		if _, err := cloud.PlaceOn(probe, srv.Name); err != nil {
			log.Fatal(err)
		}
		recs, err := cloud.DependencyRecords(probe)
		if err != nil {
			log.Fatal(err)
		}
		records = append(records, recs...)
		pool = append(pool, probe)
		switchOf[probe] = srv.ToR
	}
	fmt.Printf("candidate pool: %s\n", strings.Join(pool, ", "))

	// Push the records to the service; every search below runs over them.
	svc := auditd.New(auditd.Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := auditd.NewClient(ts.URL, http.DefaultClient)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ingest, err := client.Ingest(ctx, auditd.WireRecords(records))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served on %s: ingested %d records (fingerprint %.12s…)\n\n",
		ts.URL, ingest.Added, ingest.Fingerprint)

	// All three strategies, each one recommendation job.
	var exact *auditd.RecommendResponse
	var sameSwitch []string
	for _, strategy := range []string{"exact", "greedy", "beam"} {
		res := recommend(ctx, client, strategy, "riak replica placement")
		top := res.Rankings[0]
		// Evaluated counts the candidate audits the job ran, partial
		// deployments included. The service keeps each candidate's score
		// for the records it read, so greedy re-audits only the partial
		// deployments exact never scored, and beam finds every one scored.
		fmt.Printf("%-6s ran %2d candidate audits (space: %d deployments) → %s  (size-1 RGs: %d)\n",
			strategy, res.Evaluated, res.TotalCandidates,
			strings.Join(top.Nodes, " + "), size1(top.SizeVector))
		if switchOf[top.Nodes[0]] == switchOf[top.Nodes[1]] {
			sameSwitch = append(sameSwitch, strategy)
		}
		if exact == nil {
			exact = res
		}
	}
	if len(sameSwitch) > 0 {
		fmt.Printf("\nWARNING: %s put both replicas behind one switch\n", strings.Join(sameSwitch, ", "))
		os.Exit(1)
	}
	fmt.Println("\nall strategies cross the switch boundary — a same-switch pair would")
	fmt.Println("inherit the {Switch} size-1 risk group the §6.2.2 audit flags.")

	fmt.Printf("\nthe exact search ranked %d deployments:\n", len(exact.Rankings))
	for _, r := range exact.Rankings {
		fmt.Printf("  #%d %-28s RGs=%d size-1=%d score=%.2f\n",
			r.Rank, strings.Join(r.Nodes, " + "), r.RGCount, size1(r.SizeVector), r.Score)
	}

	// Identical searches are content-addressed: resubmitting is a cache hit.
	again, err := client.Recommend(ctx, request("exact", "same question, different asker"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmission: state=%s cached=%v\n", again.State, again.Cached)

	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := svc.Shutdown(shutdownCtx); err != nil {
		log.Fatal(err)
	}
}

// request asks for the three most independent two-replica deployments among
// every probe, under the network and hardware dependencies.
func request(strategy, title string) *auditd.RecommendRequest {
	return &auditd.RecommendRequest{
		Title:    title,
		Replicas: 2,
		TopK:     3,
		Strategy: strategy,
		Kinds:    []string{"network", "hardware"},
	}
}

// recommend runs one recommendation job to completion and fetches its
// ranking.
func recommend(ctx context.Context, client *auditd.Client, strategy, title string) *auditd.RecommendResponse {
	st, err := client.Recommend(ctx, request(strategy, title))
	if err != nil {
		log.Fatal(err)
	}
	if st, err = client.WaitDone(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	if st.State != auditd.StateDone {
		log.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	res, err := client.RecommendResult(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func size1(sizeVector []int) int {
	if len(sizeVector) == 0 {
		return 0
	}
	return sizeVector[0]
}
