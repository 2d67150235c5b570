// Agentservice demonstrates the full networked deployment of Fig. 1/Fig. 5
// on one machine: two data source servers, an auditing agent, an auditing
// client, and — for the private path — three PIA proxies running the P-SOP
// ring protocol over TCP.
//
//	go run ./examples/agentservice
package main

import (
	"fmt"
	"log"

	"indaas/internal/agent"
	"indaas/internal/deps"
)

func main() {
	// --- SIA over the network (Fig. 5a) ------------------------------------
	src1, err := agent.NewSource("127.0.0.1:0", agent.StaticAcquirer{
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S2", "Internet", "ToR1", "Core2"),
		deps.NewHardware("S1", "Disk", "S1-disk"),
		deps.NewHardware("S2", "Disk", "S2-disk"),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer src1.Close()
	src2, err := agent.NewSource("127.0.0.1:0", agent.StaticAcquirer{
		deps.NewNetwork("S3", "Internet", "ToR2", "Core1"),
		deps.NewNetwork("S4", "Internet", "ToR3", "Core2"),
		deps.NewHardware("S3", "Disk", "S3-disk"),
		deps.NewHardware("S4", "Disk", "S4-disk"),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer src2.Close()

	ag, err := agent.NewAgent("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ag.Close()
	fmt.Printf("data sources on %s and %s, auditing agent on %s\n",
		src1.Addr(), src2.Addr(), ag.Addr())

	client, err := agent.NewClient(ag.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Audit(agent.AuditRequest{
		Title:   "networked audit",
		Sources: []string{src1.Addr(), src2.Addr()},
		Deployments: []agent.DeploymentSpec{
			{Name: "same-rack", Servers: []string{"S1", "S2"}},
			{Name: "cross-rack", Servers: []string{"S3", "S4"}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSIA report (via agent):")
	for i, a := range resp.Audits {
		fmt.Printf("  #%d %-12s unexpected-RGs=%d score=%.1f\n", i+1, a.Deployment, a.Unexpected, a.Score)
		for _, rg := range a.RGs {
			fmt.Printf("       RG %v\n", rg)
		}
	}

	// --- PIA over the network (Fig. 5b) ------------------------------------
	sets := [][]string{
		{"pkg:libssl=1.0.1k", "pkg:libc6=2.19", "cloudA/lb", "cloudA/db"},
		{"pkg:libssl=1.0.1k", "pkg:libc6=2.19", "cloudB/router"},
		{"pkg:libc6=2.19", "cloudC/cache", "cloudC/queue"},
	}
	var proxyAddrs []string
	for i, s := range sets {
		px, err := agent.NewProxy("127.0.0.1:0", s)
		if err != nil {
			log.Fatal(err)
		}
		defer px.Close()
		proxyAddrs = append(proxyAddrs, px.Addr())
		fmt.Printf("\nPIA proxy for cloud %c on %s (%d components, kept private)", 'A'+i, px.Addr(), len(s))
	}
	fmt.Println()

	inter, union, err := agent.SupervisePSOP("demo-run", proxyAddrs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nP-SOP over TCP: |∩| = %d, |∪| = %d, 3-way Jaccard = %.4f\n",
		inter, union, float64(inter)/float64(union))
	fmt.Println("the supervisor saw only commutatively encrypted blobs — no cloud's")
	fmt.Println("component list ever left its proxy in cleartext.")
}
