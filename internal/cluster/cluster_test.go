package cluster_test

// Multi-node integration tests: real auditd servers on real listeners,
// clustered through the auditd.Cluster seam exactly as cmd serve wires them.
// They cover ownership forwarding, peer cache hits, fan-out splice equality
// against a single-node run, ingest replication convergence, survival of a
// dead peer, and which sources a node takes peer-only headers from.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"indaas/internal/auditd"
	"indaas/internal/cluster"
	"indaas/internal/deps"
	"indaas/internal/report"
)

type testNode struct {
	s    *auditd.Server
	node *cluster.Node
	srv  *http.Server
	addr string
	c    *auditd.Client
}

// kill tears the node down abruptly — listener and all — as a crash would.
func (tn *testNode) kill() {
	tn.srv.Close()
	tn.node.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	tn.s.Shutdown(ctx)
}

// startNode serves one clustered node on ln, wired as cmd serve wires it.
func startNode(ln net.Listener, self string, peers []string) *testNode {
	tn := serveNode(ln, self, peers, 100*time.Millisecond)
	tn.node.Start()
	return tn
}

// serveNode serves one clustered node on ln without starting its health poll.
func serveNode(ln net.Listener, self string, peers []string, poll time.Duration) *testNode {
	node := cluster.New(cluster.Config{Self: self, Peers: peers, PollInterval: poll})
	s := auditd.New(auditd.Config{Workers: 2, Cluster: node})
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return &testNode{s: s, node: node, srv: srv, addr: self, c: auditd.NewClient(self, nil)}
}

// startCluster boots size clustered nodes on loopback listeners and waits
// for their health polls to converge.
func startCluster(t *testing.T, size int) []*testNode {
	t.Helper()
	return bootCluster(t, size, 100*time.Millisecond, func(int) []auditd.RecordWire { return nil })
}

// bootCluster is startCluster with the poll period chosen and node i holding
// records(i) before any health poll starts. With a poll period longer than
// the test, each node polls its peers once, before the test's first step,
// and a test changes a node's records only where it says so.
func bootCluster(t *testing.T, size int, poll time.Duration, records func(i int) []auditd.RecordWire) []*testNode {
	t.Helper()
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, size)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		nodes[i] = serveNode(lns[i], addrs[i], peers, poll)
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.kill()
		}
	})
	for i, tn := range nodes {
		// Taken as a replica's records: pushed nowhere.
		if recs := records(i); len(recs) > 0 {
			if _, err := tn.s.Ingest(&auditd.IngestRequest{Replicated: true, Records: recs}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tn := range nodes {
		tn.node.Start()
	}
	ctx := context.Background()
	for _, tn := range nodes {
		waitMetric(t, ctx, tn, "auditd_cluster_peers_healthy", float64(size-1))
	}
	return nodes
}

// metricValue extracts one sample from an exposition page.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s = %q: %v", name, m[1], err)
	}
	return v
}

func waitMetric(t *testing.T, ctx context.Context, tn *testNode, name string, want float64) {
	t.Helper()
	for i := 0; i < 100; i++ {
		text, err := tn.c.Metrics(ctx)
		if err == nil && metricValue(t, text, name) == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("node %s: metric %s never reached %v", tn.addr, name, want)
}

func clusterRecords() []auditd.RecordWire {
	return auditd.WireRecords([]deps.Record{
		deps.NewNetwork("s1", "Internet", "ToR1", "Core1"),
		deps.NewNetwork("s2", "Internet", "ToR2", "Core1"),
		deps.NewNetwork("s3", "Internet", "ToR2", "Core2"),
		deps.NewHardware("s1", "Disk", "S1-SED900"),
		deps.NewHardware("s2", "Disk", "S2-SED900"),
		deps.NewHardware("s3", "Disk", "S3-SED900"),
		deps.NewSoftware("nginx", "s1", "libc6"),
		deps.NewSoftware("httpd", "s2", "libc6"),
		deps.NewSoftware("caddy", "s3", "libssl3"),
	})
}

// inlineAudit is a self-contained single-deployment audit whose cache key —
// and therefore hash owner — varies with the salt.
func inlineAudit(salt int) *auditd.SubmitRequest {
	return &auditd.SubmitRequest{
		Title:       fmt.Sprintf("cluster-%d", salt),
		Records:     clusterRecords(),
		Seed:        int64(salt + 1),
		Algorithm:   "failure-sampling",
		Rounds:      100 + salt,
		Deployments: []auditd.DeploymentWire{{Name: "s1+s2", Servers: []string{"s1", "s2"}}},
	}
}

// TestClusterForwardsToOwner: audits submitted through one node land on
// exactly one node's worker pool each — the content address's hash owner —
// and the fleet's computation counts sum to the number of distinct audits,
// with forwards showing up in the coordinator's cluster metrics.
func TestClusterForwardsToOwner(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	const jobs = 8
	for i := 0; i < jobs; i++ {
		st, err := nodes[0].c.Submit(ctx, inlineAudit(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if done, err := nodes[0].c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
			t.Fatalf("job %d = %+v, %v", i, done, err)
		}
	}
	var total int64
	spread := 0
	for _, tn := range nodes {
		if c := tn.s.Stats().Computations; c > 0 {
			total += c
			spread++
		}
	}
	if total != jobs {
		t.Fatalf("fleet computed %d jobs, want exactly %d (no double compute, no loss)", total, jobs)
	}
	if spread < 2 {
		t.Fatalf("all %d jobs computed on one node; hash routing spread none", jobs)
	}
	text, err := nodes[0].c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fwd := metricValue(t, text, "auditd_cluster_forwards_total")
	if away := float64(jobs - nodes[0].s.Stats().Computations); fwd != away {
		t.Fatalf("coordinator counted %v forwards, want %v (jobs minus its own computations)", fwd, away)
	}
}

// TestClusterForwardRelaysEveryKindAsBytes: a job of any kind submitted
// through a node that does not own it is posted to the owner uninterpreted,
// and the owner's result comes back as the bytes it served — the coordinator
// caches them verbatim, having run no encode and no decode.
func TestClusterForwardRelaysEveryKindAsBytes(t *testing.T) {
	nodes := startCluster(t, 2)
	ctx := context.Background()
	coord, owner := nodes[0], nodes[1]
	// Salted self-contained requests: the salt moves the key around the ring
	// until the other node owns it.
	kinds := map[string]func(salt int) (auditd.JobStatus, error){
		"audit": func(salt int) (auditd.JobStatus, error) { return coord.c.Submit(ctx, inlineAudit(salt)) },
		"recommend": func(salt int) (auditd.JobStatus, error) {
			return coord.c.Recommend(ctx, &auditd.RecommendRequest{Records: clusterRecords(), Replicas: 2, TopK: 1 + salt})
		},
		"private-audit": func(salt int) (auditd.JobStatus, error) {
			return coord.c.PrivateAudit(ctx, &auditd.PrivateAuditRequest{Providers: []auditd.ProviderWire{
				{Name: "left", Components: []string{"pkg:a", "pkg:shared", fmt.Sprintf("pkg:salt-%d", salt)}},
				{Name: "right", Components: []string{"pkg:x", "pkg:shared"}},
			}})
		},
	}
	cached := func(tn *testNode, key string) string {
		resp, err := http.Get(tn.addr + "/v1/cache/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET %s/v1/cache/%s: HTTP %d, %v", tn.addr, key, resp.StatusCode, err)
		}
		return string(body)
	}
	for kind, submit := range kinds {
		forwarded := false
		for salt := 0; salt < 16 && !forwarded; salt++ {
			before := owner.s.Stats().Computations
			st, err := submit(salt)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if done, err := coord.c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
				t.Fatalf("%s job = %+v, %v", kind, done, err)
			}
			if owner.s.Stats().Computations == before {
				continue // the coordinator owned this key
			}
			forwarded = true
			if got, want := cached(coord, st.CacheKey), cached(owner, st.CacheKey); got != want {
				t.Errorf("%s: the coordinator holds\n%s\nthe owner computed\n%s", kind, got, want)
			}
		}
		if !forwarded {
			t.Errorf("%s: 16 salts and the other node never owned a key", kind)
		}
	}
	st := coord.s.Stats()
	if st.ResultDecodes != 0 || int64(st.ResultEncode.Count()) != st.Computations {
		t.Errorf("coordinator ran %d decodes and %d encodes for its own %d computations; relayed jobs must add none",
			st.ResultDecodes, st.ResultEncode.Count(), st.Computations)
	}
}

// TestClusterPeerCacheHit: a result computed anywhere in the fleet is a
// cache hit from every node — resubmitting through a node that neither
// computed nor cached it answers instantly via the owner probe (or the
// forwarded submit landing on the owner's cache), never by recomputing.
func TestClusterPeerCacheHit(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	req := inlineAudit(42)
	st, err := nodes[0].c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := nodes[0].c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
		t.Fatalf("first run = %+v, %v", done, err)
	}
	var before int64
	for _, tn := range nodes {
		before += tn.s.Stats().Computations
	}
	for _, tn := range nodes {
		st2, err := tn.c.Submit(ctx, req)
		if err != nil {
			t.Fatalf("resubmit via %s: %v", tn.addr, err)
		}
		if done, err := tn.c.WaitDone(ctx, st2.ID); err != nil || done.State != auditd.StateDone {
			t.Fatalf("resubmit via %s = %+v, %v", tn.addr, done, err)
		}
		if st2.CacheKey != st.CacheKey {
			t.Fatalf("cache key diverged: %s vs %s", st2.CacheKey, st.CacheKey)
		}
	}
	var after int64
	for _, tn := range nodes {
		after += tn.s.Stats().Computations
	}
	if after != before {
		t.Fatalf("resubmits recomputed: fleet computations %d -> %d", before, after)
	}
}

// TestClusterPeerHitAcrossDivergedDatabases: two nodes whose databases
// differ only in a machine no deployment names share results. The address of
// a server-database audit names the records its deployment reads, so both
// nodes derive the same one: computed on the key's owner, it is a peer-tier
// hit on the other node, which computes nothing.
func TestClusterPeerHitAcrossDivergedDatabases(t *testing.T) {
	nodes := startCluster(t, 2)
	ctx := context.Background()
	if _, err := nodes[0].c.Ingest(ctx, clusterRecords()); err != nil {
		t.Fatal(err)
	}
	// A record only node 1 holds: a replica is never replicated onward.
	if _, err := nodes[1].s.Ingest(&auditd.IngestRequest{Replicated: true, Records: []auditd.RecordWire{
		{Kind: "hardware", HW: "spare-1", Type: "NIC", Dep: "spare-1-x520"},
	}}); err != nil {
		t.Fatal(err)
	}
	if nodes[0].s.Stats().IngestedRecords == nodes[1].s.Stats().IngestedRecords {
		t.Fatal("the two databases did not diverge")
	}
	// Salt the deployment name until node 0 owns the address, so the first
	// run computes on the owner, not forwarded: the hit below must come from
	// the peer tier.
	owner, other := nodes[0], nodes[1]
	var req *auditd.SubmitRequest
	var key string
	for salt := 0; salt < 16 && req == nil; salt++ {
		r := &auditd.SubmitRequest{
			Title:       "diverged",
			Deployments: []auditd.DeploymentWire{{Name: fmt.Sprintf("s1+s2-%d", salt), Servers: []string{"s1", "s2"}}},
		}
		st, err := owner.c.Submit(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if done, err := owner.c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
			t.Fatalf("run on node 0 = %+v, %v", done, err)
		}
		if owner.node.OwnerOf(st.CacheKey) == owner.addr {
			req, key = r, st.CacheKey
		}
	}
	if req == nil {
		t.Fatal("16 salts and node 0 never owned an address")
	}
	before := other.s.Stats().Computations
	st, err := other.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != auditd.StateDone || !st.Cached || st.CacheKey != key {
		t.Fatalf("submit on the non-owner = %+v, want a peer-tier hit on %s", st, key)
	}
	if got := other.s.Stats().Computations; got != before {
		t.Fatalf("the non-owner computed (%d -> %d) a result its peer holds", before, got)
	}
	text, err := other.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if metricValue(t, text, "auditd_cluster_peer_cache_hits_total") != 1 {
		t.Fatal("the hit did not come from the peer tier")
	}
}

// TestClusterFanoutMatchesSingleNode: a many-deployment audit fanned out
// across the fleet splices to exactly the report a lone node computes —
// same deployments, same order, same risk groups.
func TestClusterFanoutMatchesSingleNode(t *testing.T) {
	req := &auditd.SubmitRequest{
		Title:   "fanout-vs-single",
		Records: clusterRecords(),
		Deployments: []auditd.DeploymentWire{
			{Name: "s1+s2", Servers: []string{"s1", "s2"}},
			{Name: "s1+s3", Servers: []string{"s1", "s3"}},
			{Name: "s2+s3", Servers: []string{"s2", "s3"}},
		},
	}
	ctx := context.Background()

	single := auditd.New(auditd.Config{Workers: 2})
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		single.Shutdown(sctx)
	}()
	st, err := single.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := single.WaitDone(ctx, st.ID, 10*time.Second); err != nil || done.State != auditd.StateDone {
		t.Fatalf("single-node run = %+v, %v", done, err)
	}
	wantRes, err := single.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := wantRes.(*report.Report)

	nodes := startCluster(t, 3)
	cst, err := nodes[0].c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := nodes[0].c.WaitDone(ctx, cst.ID); err != nil || done.State != auditd.StateDone {
		t.Fatalf("clustered run = %+v, %v", done, err)
	}
	got, err := nodes[0].c.Report(ctx, cst.ID)
	if err != nil {
		t.Fatal(err)
	}

	text, err := nodes[0].c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if metricValue(t, text, "auditd_cluster_fanouts_total") != 1 {
		t.Fatal("the clustered run did not fan out")
	}
	if subs := metricValue(t, text, "auditd_cluster_fanout_subaudits_total"); subs != 3 {
		t.Fatalf("fan-out spawned %v sub-audits, want 3", subs)
	}
	if !reflect.DeepEqual(normalizeReport(t, want), normalizeReport(t, got)) {
		t.Fatalf("spliced report diverges from single-node run:\nwant %s\ngot  %s",
			normalizeReport(t, want), normalizeReport(t, got))
	}
}

// TestClusterFanoutRanksHostilePeerReport: the coordinator ranks what its
// peers answer, on a goroutine of its own, so a sub-report no honest node
// would compute must not be able to crash it. The peer here is a stub that
// answers every sub-audit with a risk group of size 0 — which PR 12's own
// stored fixture carries — and one of size 10¹², each of which used to index
// or size a slice inside Report.Rank. It answers each sub-audit under the
// address an honest node derives for it — a standalone daemon's — so the
// coordinator accepts the reports and must rank them.
func TestClusterFanoutRanksHostilePeerReport(t *testing.T) {
	// Sixteen sub-audits, each routed by the hash of its own content address:
	// all of them landing on the coordinator has probability 2⁻¹⁶.
	req := &auditd.SubmitRequest{Title: "hostile peer", Records: clusterRecords()}
	addrs := make(map[string]string)
	honest := standalone(t, nil)
	for i := 0; i < 16; i++ {
		d := auditd.DeploymentWire{Name: fmt.Sprintf("d%02d", i), Servers: []string{"s1", "s2"}}
		req.Deployments = append(req.Deployments, d)
		addrs[d.Name], _ = runOn(t, honest, &auditd.SubmitRequest{Records: req.Records, Deployments: []auditd.DeploymentWire{d}})
	}
	var served atomic.Int32
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/audits/")
		switch {
		case r.URL.Path == "/healthz":
			fmt.Fprint(w, `{"ok":true,"status":"ok"}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/audits":
			var sub auditd.SubmitRequest
			if err := json.NewDecoder(r.Body).Decode(&sub); err != nil || len(sub.Deployments) != 1 {
				http.Error(w, "want one deployment", http.StatusBadRequest)
				return
			}
			name := sub.Deployments[0].Name
			json.NewEncoder(w).Encode(auditd.JobStatus{ID: name, State: auditd.StateDone, CacheKey: addrs[name]})
		case id == r.URL.Path:
			http.NotFound(w, r)
		case strings.HasSuffix(id, "/report"):
			served.Add(1)
			fmt.Fprintf(w, `{"title":"","audits":[{"deployment":%q,"sources":["s1","s2"],"expected":2,"rgs":[{"components":null,"size":0},{"components":["x"],"size":1000000000000}],"unexpected":0,"score_top_n":0,"algorithm":"minimal-rg","elapsed_ns":1}]}`+"\n",
				strings.TrimSuffix(id, "/report"))
		default:
			json.NewEncoder(w).Encode(auditd.JobStatus{ID: id, State: auditd.StateDone})
		}
	}))
	defer peer.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tn := startNode(ln, "http://"+ln.Addr().String(), []string{peer.URL})
	defer tn.kill()
	ctx := context.Background()
	waitMetric(t, ctx, tn, "auditd_cluster_peers_healthy", 1)

	st, err := tn.c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := tn.c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
		t.Fatalf("fan-out over a hostile peer = %+v, %v", done, err)
	}
	rep, err := tn.c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no sub-audit was routed to the peer")
	}
	if len(rep.Audits) != 16 {
		t.Fatalf("spliced report has %d audits, want 16", len(rep.Audits))
	}
	// The peer's audits have no real size-1 risk group, the coordinator's own
	// have one (Core1): by size vector the peer's rank first, in name order.
	for i := 1; i < int(served.Load()); i++ {
		if a, b := rep.Audits[i-1], rep.Audits[i]; len(a.RGs) != 2 || len(b.RGs) != 2 || a.Deployment >= b.Deployment {
			t.Fatalf("audits %d and %d are not the peer's, in name order: %q (%d RGs), %q (%d RGs)", i-1, i, a.Deployment, len(a.RGs), b.Deployment, len(b.RGs))
		}
	}
}

// normalizeReport strips per-run timing from a report and renders it
// canonically for comparison.
func normalizeReport(t *testing.T, r *report.Report) string {
	t.Helper()
	c := *r
	c.Audits = append([]report.DeploymentAudit(nil), r.Audits...)
	for i := range c.Audits {
		c.Audits[i].Elapsed = 0
	}
	blob, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestClusterReplicationConverges: records ingested through one node reach
// every peer before the ingest is acknowledged, so the fleet serves one
// database fingerprint and a database audit submitted anywhere completes.
func TestClusterReplicationConverges(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	resp, err := nodes[0].c.Ingest(ctx, clusterRecords())
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		st := tn.s.Stats()
		if st.IngestedRecords != int64(resp.Added) {
			t.Fatalf("node %s holds %d records, want %d", tn.addr, st.IngestedRecords, resp.Added)
		}
	}
	// A non-self-contained audit (no inline records) against the replicated
	// database, submitted through a non-ingesting node: the key embeds the
	// shared fingerprint, so any node may compute it.
	req := &auditd.SubmitRequest{
		Title:       "replicated-db",
		Deployments: []auditd.DeploymentWire{{Name: "s1+s2", Servers: []string{"s1", "s2"}}},
	}
	st, err := nodes[1].c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := nodes[1].c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
		t.Fatalf("replicated-db audit = %+v, %v", done, err)
	}
}

// TestClusterSurvivesDeadPeer: killing one node mid-fleet leaves the
// survivors serving everything — forwards to the corpse fail over to local
// compute and the peer-health gauge drops.
func TestClusterSurvivesDeadPeer(t *testing.T) {
	nodes := startCluster(t, 3)
	ctx := context.Background()
	nodes[2].kill()

	for i := 0; i < 8; i++ {
		st, err := nodes[0].c.Submit(ctx, inlineAudit(100+i))
		if err != nil {
			t.Fatalf("submit %d after kill: %v", i, err)
		}
		if done, err := nodes[0].c.WaitDone(ctx, st.ID); err != nil || done.State != auditd.StateDone {
			t.Fatalf("job %d after kill = %+v, %v", i, done, err)
		}
	}
	waitMetric(t, ctx, nodes[0], "auditd_cluster_peers_healthy", 1)
	total := nodes[0].s.Stats().Computations + nodes[1].s.Stats().Computations
	if total != 8 {
		t.Fatalf("survivors computed %d jobs, want all 8", total)
	}
}

// TestClusterMetricNames: every cluster row of the /metrics table reaches
// the daemon's exposition page under its declared kind, after the core
// series (the naming rule itself is checked over the whole table in
// internal/auditd).
func TestClusterMetricNames(t *testing.T) {
	nodes := startCluster(t, 2)
	text, err := nodes[0].c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	core := strings.Index(text, "# TYPE auditd_degraded gauge\n")
	for _, m := range nodes[0].node.Metrics() {
		if i := strings.Index(text, "# TYPE "+m.Name+" "+string(m.Kind)+"\n"); i < core {
			t.Errorf("cluster %s %s is missing from /metrics or precedes the core series", m.Kind, m.Name)
		}
	}
	if !strings.Contains(text, "auditd_cluster_forwards_total") {
		t.Fatal("cluster series missing from /metrics")
	}
}

// TestNodeTrustsOnlyConfiguredPeers: a node takes peer-only headers from the
// addresses its Self and Peers name — Self included, since a fan-out posts
// sub-audits to its own node — and from nowhere else. An unspecified Self is
// this machine, reached over loopback.
func TestNodeTrustsOnlyConfiguredPeers(t *testing.T) {
	from := func(addr string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/depdb", nil)
		r.RemoteAddr = addr
		return r
	}
	node := cluster.New(cluster.Config{Self: "http://10.0.0.1:7080", Peers: []string{"10.0.0.2:7080", "http://[fd00::3]:7080"}})
	for addr, want := range map[string]bool{
		"10.0.0.1:40000": true, "10.0.0.2:40000": true, "[fd00::3]:40000": true, "[::ffff:10.0.0.2]:40000": true,
		"10.0.0.4:40000": false, "127.0.0.1:40000": false, "192.0.2.1:1234": false, "not an address": false,
	} {
		if got := node.FromPeer(from(addr)); got != want {
			t.Errorf("FromPeer(%s) = %v, want %v", addr, got, want)
		}
	}
	local := cluster.New(cluster.Config{Self: ":7080", Peers: []string{"10.0.0.2:7080"}})
	if !local.FromPeer(from("127.0.0.1:40000")) || !local.FromPeer(from("[::1]:40000")) || local.FromPeer(from("10.0.0.9:1")) {
		t.Error("a node listening on every interface must trust loopback, and only it, as itself")
	}
}
