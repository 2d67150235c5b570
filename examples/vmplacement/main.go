// Vmplacement reproduces the paper's second case study (§6.2.2, Fig. 6b):
// OpenStack's least-loaded scheduler silently places both replicas of a Riak
// store on the same physical server; the INDaaS audit catches the resulting
// size-1 risk groups before the service goes public, and the suggested
// re-deployment removes them.
//
// A second act replays the same cloud with schedulers that consult the
// audit machinery *before* committing a placement: anti-affinity (the fix
// the paper's report motivates) avoids the shared host, and the
// independence scheduler — which delegates the host choice to the
// internal/placement engine — additionally avoids the shared switch.
//
//	go run ./examples/vmplacement
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"indaas/internal/auditd"
	"indaas/internal/cloudsim"
	"indaas/internal/deps"
	"indaas/internal/exp"
)

func main() {
	fmt.Println("deploying Riak on two VMs in the four-server lab cloud…")
	res, err := exp.RunFig6b()
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Render().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := res.Verify(); err != nil {
		fmt.Printf("\nWARNING: result deviates from the paper: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Printf("the scheduler put both replicas on %s — a single server whose\n", res.VM7Host)
	fmt.Println("failure would undermine the redundancy effort, exactly the risk the")
	fmt.Printf("audit's top-ranked groups expose. re-deploying per the report (%s)\n", res.Suggestion)
	fmt.Printf("leaves %d unexpected risk groups.\n", res.AfterUnexpected)

	fmt.Println("\nreplaying the deployment with audit-aware schedulers:")
	for _, policy := range []string{"anti-affinity", "independence"} {
		hosts, unexpected, err := placeRiak(policy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-13s VM7→%s VM8→%s  unexpected-RGs=%d\n",
			policy, hosts[0], hosts[1], unexpected)
	}
	fmt.Println("\nanti-affinity only forbids the shared host; the independence")
	fmt.Println("scheduler audits every candidate through the placement engine and")
	fmt.Println("crosses the switch boundary too — no migration ever needed.")
}

// placeRiak rebuilds the Fig. 6b cloud (same pre-existing load) and places
// the two Riak replicas with the given policy, returning their hosts and
// the unexpected-RG count of the resulting deployment's audit.
func placeRiak(policy string) ([2]string, int, error) {
	cloud := cloudsim.FourServerLab(1)
	for _, pin := range []struct{ vm, host string }{
		{"web-vm1", "Server1"}, {"web-vm2", "Server1"},
		{"batch-vm3", "Server3"}, {"batch-vm4", "Server3"},
		{"db-vm5", "Server4"}, {"db-vm6", "Server4"},
	} {
		if _, err := cloud.PlaceOn(pin.vm, pin.host); err != nil {
			return [2]string{}, 0, err
		}
	}
	var vm7, vm8 cloudsim.VM
	var err error
	switch policy {
	case "anti-affinity":
		if vm7, err = cloud.Place("VM7", "riak", cloudsim.AntiAffinity); err != nil {
			return [2]string{}, 0, err
		}
		vm8, err = cloud.Place("VM8", "riak", cloudsim.AntiAffinity)
	case "independence":
		sched := &cloudsim.IndependenceScheduler{Cloud: cloud}
		if vm7, err = sched.Place("VM7", "riak"); err != nil {
			return [2]string{}, 0, err
		}
		vm8, err = sched.Place("VM8", "riak")
	default:
		return [2]string{}, 0, fmt.Errorf("unknown policy %q", policy)
	}
	if err != nil {
		return [2]string{}, 0, err
	}
	unexpected, err := auditRiak(cloud)
	if err != nil {
		return [2]string{}, 0, err
	}
	return [2]string{vm7.Host, vm8.Host}, unexpected, nil
}

// auditRiak runs the §6.2.2 audit over the deployed pair on an in-process
// audit service, the VMs' records inline, and returns the unexpected-RG
// count.
func auditRiak(cloud *cloudsim.Cloud) (int, error) {
	var records []deps.Record
	for _, vm := range []string{"VM7", "VM8"} {
		recs, err := cloud.DependencyRecords(vm)
		if err != nil {
			return 0, err
		}
		records = append(records, recs...)
	}
	ctx := context.Background()
	s := auditd.New(auditd.Config{})
	defer s.Shutdown(ctx)
	st, err := s.Submit(&auditd.SubmitRequest{
		Title:   "riak",
		Records: auditd.WireRecords(records),
		Deployments: []auditd.DeploymentWire{{
			Name:    "riak",
			Servers: []string{"VM7", "VM8"},
			Kinds:   []string{"network", "hardware"},
		}},
	})
	if err != nil {
		return 0, err
	}
	if st, err = s.WaitDone(ctx, st.ID, math.MaxInt64); err != nil {
		return 0, err
	}
	if st.State != auditd.StateDone {
		return 0, fmt.Errorf("audit %s: %s", st.State, st.Error)
	}
	rep, err := s.Report(st.ID)
	if err != nil {
		return 0, err
	}
	return rep.Audits[0].Unexpected, nil
}
