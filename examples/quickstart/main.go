// Quickstart: audit the independence of a two-way redundant storage service
// (the Fig. 2 / Fig. 3 sample system) on an in-process audit service.
//
//	go run ./examples/quickstart
//
// The deployment replicates state across servers S1 and S2. Both servers sit
// behind the same top-of-rack switch and both run software linked against
// the same libc — the audit surfaces both as unexpected risk groups, then
// shows how an alternative placement compares.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/deps"
)

func main() {
	// In production these records come from acquisition modules (NSDMiner,
	// lshw, apt-rdepends); here they are the paper's Fig. 3 sample.
	db := depdb.New()
	err := db.Put(
		deps.NewNetwork("S1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S1", "Internet", "ToR1", "Core2"),
		deps.NewNetwork("S2", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("S2", "Internet", "ToR1", "Core2"),
		deps.NewHardware("S1", "CPU", "S1-Intel(R)X5550@2.6GHz"),
		deps.NewHardware("S1", "Disk", "S1-SED900"),
		deps.NewHardware("S2", "CPU", "S2-Intel(R)X5550@2.6GHz"),
		deps.NewHardware("S2", "Disk", "S2-SED900"),
		deps.NewSoftware("QueryEngine1", "S1", "libc6", "libgcc1"),
		deps.NewSoftware("Riak1", "S1", "libc6", "libsvn1"),
		deps.NewSoftware("QueryEngine2", "S2", "libc6", "libgcc1"),
		deps.NewSoftware("Riak2", "S2", "libc6", "libsvn1"),
		// An alternative server in another rack, for comparison.
		deps.NewNetwork("S3", "Internet", "ToR2", "Core1"),
		deps.NewNetwork("S3", "Internet", "ToR2", "Core2"),
		deps.NewHardware("S3", "CPU", "S3-AMD-Opteron6272@2.1GHz"),
		deps.NewHardware("S3", "Disk", "S3-ST2000DM001"),
		deps.NewSoftware("QueryEngine3", "S3", "musl", "libgcc1"),
		deps.NewSoftware("Riak3", "S3", "musl", "libsvn1"),
	)
	if err != nil {
		log.Fatal(err)
	}

	// The audit service, in process, over that database: audit the deployed
	// configuration and an alternative (minimal RGs, size ranking).
	ctx := context.Background()
	s := auditd.New(auditd.Config{DB: db})
	defer s.Shutdown(ctx)
	st, err := s.Submit(&auditd.SubmitRequest{
		Title: "quickstart",
		Deployments: []auditd.DeploymentWire{
			{Name: "S1+S2 (same rack)", Servers: []string{"S1", "S2"}},
			{Name: "S1+S3 (cross rack)", Servers: []string{"S1", "S3"}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if st, err = s.WaitDone(ctx, st.ID, math.MaxInt64); err != nil {
		log.Fatal(err)
	}
	if st.State != auditd.StateDone {
		log.Fatalf("audit %s: %s", st.State, st.Error)
	}
	rep, err := s.Report(st.ID)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Render(os.Stdout, 8); err != nil {
		log.Fatal(err)
	}

	best, err := rep.Best()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmost independent deployment: %s (%d unexpected risk groups)\n",
		best.Deployment, best.Unexpected)
}
