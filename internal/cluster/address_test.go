package cluster_test

// A forward proves its address: a coordinator relays an owner's result only
// when the owner derived the coordinator's own content address for the
// request. Each test boots its fleet with every node's records in place
// before the first health poll and a poll period longer than the test, so
// what a node believes about its peers is fixed and no step waits on time.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/report"
)

// standalone is an unclustered daemon holding records (none for nil): the
// reference a fleet's answers are checked against.
func standalone(t *testing.T, records []auditd.RecordWire) *auditd.Server {
	t.Helper()
	s := auditd.New(auditd.Config{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if records == nil {
		return s
	}
	if _, err := s.Ingest(&auditd.IngestRequest{Records: records}); err != nil {
		t.Fatal(err)
	}
	return s
}

// runOn audits req on a standalone daemon and returns its address and report.
func runOn(t *testing.T, s *auditd.Server, req *auditd.SubmitRequest) (string, *report.Report) {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := s.WaitDone(context.Background(), st.ID, 10*time.Second); err != nil || done.State != auditd.StateDone {
		t.Fatalf("standalone run = %+v, %v", done, err)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st.CacheKey, res.(*report.Report)
}

// runAt audits req through a fleet node and returns its address and report.
func runAt(t *testing.T, tn *testNode, req *auditd.SubmitRequest) (string, *report.Report) {
	t.Helper()
	ctx := context.Background()
	st, err := tn.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := tn.c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
		t.Fatalf("run at %s = %+v, %v", tn.addr, done, err)
	}
	rep, err := tn.c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st.CacheKey, rep
}

// ownedSingle salts an s1+s2 server-database audit until ref's address for
// it is owned by owner in coord's ring.
func ownedSingle(t *testing.T, ref *auditd.Server, coord *testNode, owner string) *auditd.SubmitRequest {
	t.Helper()
	for salt := 0; salt < 32; salt++ {
		req := &auditd.SubmitRequest{
			Title:       "owners-address",
			Deployments: []auditd.DeploymentWire{{Name: fmt.Sprintf("s1+s2-%d", salt), Servers: []string{"s1", "s2"}}},
		}
		if key, _ := runOn(t, ref, req); coord.node.OwnerOf(key) == owner {
			return req
		}
	}
	t.Fatalf("32 salts and %s never owned an address", owner)
	return nil
}

// diverge gives one node alone a record an s1 audit reads: s1's disk becomes
// the model s2 runs on, so the two servers share a risk group of size one.
func diverge(t *testing.T, tn *testNode) {
	t.Helper()
	if _, err := tn.s.Ingest(&auditd.IngestRequest{Replicated: true, Records: []auditd.RecordWire{
		{Kind: "hardware", HW: "s1", Type: "Disk", Dep: "S2-SED900"},
	}}); err != nil {
		t.Fatal(err)
	}
}

func clusterMetric(t *testing.T, tn *testNode, name string) float64 {
	t.Helper()
	text, err := tn.c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return metricValue(t, text, name)
}

func sharedRecords(int) []auditd.RecordWire { return clusterRecords() }

// TestForwardRequiresOwnersAddress: node 1 alone holds a record an audit
// reads, after node 0's only health poll. Node 0 forwards the audit to its
// owner, node 1, which derives another address: node 0 must answer with the
// report of its own records, not relay node 1's under its own address.
func TestForwardRequiresOwnersAddress(t *testing.T) {
	nodes := bootCluster(t, 2, time.Hour, sharedRecords)
	ref := standalone(t, clusterRecords())
	req := ownedSingle(t, ref, nodes[0], nodes[1].addr)
	wantKey, want := runOn(t, ref, req)
	diverge(t, nodes[1])

	key, got := runAt(t, nodes[0], req)
	if key != wantKey {
		t.Fatalf("node 0 addressed the audit %s, want %s", key, wantKey)
	}
	if normalizeReport(t, got) != normalizeReport(t, want) {
		t.Fatalf("node 0 served another node's records under its address:\nwant %s\ngot  %s",
			normalizeReport(t, want), normalizeReport(t, got))
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_forward_mismatches_total"); n != 1 {
		t.Fatalf("forward mismatches = %v, want 1", n)
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_forwards_total"); n != 0 {
		t.Fatalf("forwards = %v, want 0: the owner's answer is not this node's", n)
	}
}

// TestFanoutRequiresOwnersAddress: the same divergence under a fan-out —
// every sub-audit node 1 owns comes back under another address, runs on
// node 0 instead, and the spliced report is node 0's own.
func TestFanoutRequiresOwnersAddress(t *testing.T) {
	nodes := bootCluster(t, 2, time.Hour, sharedRecords)
	ref := standalone(t, clusterRecords())
	var req *auditd.SubmitRequest
	owned := 0
	for salt := 0; salt < 16 && owned == 0; salt++ {
		req = &auditd.SubmitRequest{Title: "fanout-owners-address"}
		for i := 0; i < 8; i++ {
			d := auditd.DeploymentWire{Name: fmt.Sprintf("f%d-d%d", salt, i), Servers: []string{"s1", []string{"s2", "s3"}[i%2]}}
			req.Deployments = append(req.Deployments, d)
			if part, _ := runOn(t, ref, &auditd.SubmitRequest{Deployments: []auditd.DeploymentWire{d}}); nodes[0].node.OwnerOf(part) == nodes[1].addr {
				owned++
			}
		}
	}
	if owned == 0 {
		t.Fatal("16 salts and node 1 never owned a sub-audit")
	}
	wantKey, want := runOn(t, ref, req)
	diverge(t, nodes[1])

	key, got := runAt(t, nodes[0], req)
	if key != wantKey {
		t.Fatalf("node 0 addressed the audit %s, want %s", key, wantKey)
	}
	if normalizeReport(t, got) != normalizeReport(t, want) {
		t.Fatalf("the spliced report mixes another node's records:\nwant %s\ngot  %s",
			normalizeReport(t, want), normalizeReport(t, got))
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_fanouts_total"); n != 1 {
		t.Fatalf("fan-outs = %v, want 1", n)
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_forward_mismatches_total"); n != float64(owned) {
		t.Fatalf("forward mismatches = %v, want one per sub-audit node 1 owns (%d)", n, owned)
	}
}

// TestForwardAcrossUnrelatedDivergence: node 1 alone holds a record about a
// machine the audit does not read. Both nodes derive the same address, so
// the audit is forwarded to its owner and the coordinator computes nothing.
func TestForwardAcrossUnrelatedDivergence(t *testing.T) {
	nodes := bootCluster(t, 2, time.Hour, func(i int) []auditd.RecordWire {
		if i == 1 {
			return append(clusterRecords(), auditd.RecordWire{Kind: "hardware", HW: "spare-1", Type: "NIC", Dep: "spare-1-x520"})
		}
		return clusterRecords()
	})
	ref := standalone(t, clusterRecords())
	req := ownedSingle(t, ref, nodes[0], nodes[1].addr)
	wantKey, want := runOn(t, ref, req)

	key, got := runAt(t, nodes[0], req)
	if key != wantKey || normalizeReport(t, got) != normalizeReport(t, want) {
		t.Fatalf("node 0 answered %s %s, want %s %s", key, normalizeReport(t, got), wantKey, normalizeReport(t, want))
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_forwards_total"); n != 1 {
		t.Fatalf("forwards = %v, want 1", n)
	}
	if c0, c1 := nodes[0].s.Stats().Computations, nodes[1].s.Stats().Computations; c0 != 0 || c1 != 1 {
		t.Fatalf("computations: coordinator %d, owner %d; want 0 and 1", c0, c1)
	}
}

// TestForwardToOwnerWithoutDatabase: an owner that holds no database yet (a
// restarted memory-only node, say) refuses a server-database audit with a
// 400. It is alive: the coordinator computes the forward and the fan-out's
// sub-audits itself, and routes around nothing.
func TestForwardToOwnerWithoutDatabase(t *testing.T) {
	nodes := bootCluster(t, 2, time.Hour, func(i int) []auditd.RecordWire {
		if i == 0 {
			return clusterRecords()
		}
		return nil
	})
	ref := standalone(t, clusterRecords())
	single := ownedSingle(t, ref, nodes[0], nodes[1].addr)
	fanout := &auditd.SubmitRequest{Title: "fanout-no-database"}
	for i := 0; i < 8; i++ {
		fanout.Deployments = append(fanout.Deployments, auditd.DeploymentWire{Name: fmt.Sprintf("n-d%d", i), Servers: []string{"s1", "s2"}})
	}
	for _, req := range []*auditd.SubmitRequest{single, fanout} {
		wantKey, want := runOn(t, ref, req)
		if key, got := runAt(t, nodes[0], req); key != wantKey || normalizeReport(t, got) != normalizeReport(t, want) {
			t.Fatalf("node 0 answered %s %s, want %s %s", key, normalizeReport(t, got), wantKey, normalizeReport(t, want))
		}
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_forward_mismatches_total"); n < 1 {
		t.Fatalf("forward mismatches = %v, want the refused forward counted", n)
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_forward_failures_total"); n != 0 {
		t.Fatalf("forward failures = %v, want 0: the owner answered", n)
	}
	if n := clusterMetric(t, nodes[0], "auditd_cluster_peers_healthy"); n != 1 {
		t.Fatalf("healthy peers = %v, want 1: a refusal is not a death", n)
	}
}
