package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"indaas/internal/crypto/commutative"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
)

// requestFixtures are the request bodies the smoke legs post, as the fuzz
// targets' seeds.
var requestFixtures = []string{"../../scripts/smoke_request.json", "../../scripts/recommend_request.json"}

// fixtureRecords reads every record of the request fixtures.
func fixtureRecords(f *testing.F) []RecordWire {
	var out []RecordWire
	for _, path := range requestFixtures {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var req struct {
			Records []RecordWire `json:"records"`
		}
		if err := json.Unmarshal(blob, &req); err != nil {
			f.Fatal(err)
		}
		out = append(out, req.Records...)
	}
	return out
}

// FuzzRecordWire drives the record boundary clients and replicating peers
// reach: a wire record is refused with a 400, or it validates, frames into a
// one-record segment, and reloads through PutSegment to the database a direct
// commit builds — same fingerprint, same scope digest for its subject and
// kind. Nothing panics.
func FuzzRecordWire(f *testing.F) {
	for _, w := range append(fixtureRecords(f), deltaRecords()...) {
		blob, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, s := range []string{
		`{"kind":"hardware","hw":"s1","type":"NIC","dep":"a\u001fb"}`,
		`{"kind":"software","pgm":"p","hw":"h","deps":["x\u001ey","z"]}`,
		`{"kind":"network","src":"s","dst":"d","route":[]}`,
		`{"kind":"network","src":"","dst":"d","route":["r"]}`,
		`{"kind":"disk","hw":"s1"}`,
		`{"kind":"software","pgm":"p","hw":"h"}`,
		`{}`,
		`[`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var w RecordWire
		if json.Unmarshal(blob, &w) != nil {
			return // the HTTP decoder's 400
		}
		recs, err := recordsFromWire([]RecordWire{w})
		if err != nil {
			if httpStatus(err) != 400 {
				t.Fatalf("record refused with %d: %v", httpStatus(err), err)
			}
			return
		}
		b, err := depdb.NewBatch(recs...)
		if err != nil {
			t.Fatalf("a validated record is refused by NewBatch: %v", err)
		}
		loaded, direct := depdb.New(), depdb.New()
		if err := loaded.PutSegment(b.Segment()); err != nil {
			t.Fatalf("a validated record's segment does not reload: %v", err)
		}
		direct.PutBatch(b)
		if loaded.Fingerprint() != direct.Fingerprint() {
			t.Fatalf("the reloaded record has fingerprint %s, the committed one %s", loaded.Fingerprint(), direct.Fingerprint())
		}
		subj, kinds := []string{recs[0].Subject()}, []deps.Kind{recs[0].Kind}
		if got, want := loaded.Snapshot().Scope(subj, kinds), direct.Snapshot().Scope(subj, kinds); got != want {
			t.Fatalf("the reloaded record has scope %s, the committed one %s", got, want)
		}
	})
}

// FuzzAuditPrepare drives the audit kind's submission boundary — what clients
// and forwarding peers send — through normalize and prepare against a fixed
// server database: a request is refused with a 4xx, or it prepares to an
// address that two prepares agree on, whose per-deployment parts are the
// addresses its one-deployment sub-requests get. Nothing panics.
func FuzzAuditPrepare(f *testing.F) {
	db := depdb.New()
	var all []deps.Record
	for _, w := range append(fixtureRecords(f), deltaRecords()...) {
		r, err := w.Record()
		if err != nil {
			f.Fatal(err)
		}
		all = append(all, r)
	}
	if err := db.Put(all...); err != nil {
		f.Fatal(err)
	}
	s := New(Config{Workers: 1, DB: db})
	f.Cleanup(func() { shutdown(f, s) })

	for _, path := range requestFixtures[:1] {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		var req SubmitRequest
		if err := json.Unmarshal(blob, &req); err != nil {
			f.Fatal(err)
		}
		req.Records = nil // the same deployments against the server database
		f.Add(mustJSON(f, &req))
	}
	// The golden report's deployments, as the request that would audit them.
	golden, err := os.ReadFile("testdata/e2e_report_golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var rep report.Report
	if err := json.Unmarshal(golden, &rep); err != nil {
		f.Fatal(err)
	}
	fromGolden := &SubmitRequest{Title: rep.Title}
	for _, a := range rep.Audits {
		fromGolden.Deployments = append(fromGolden.Deployments, DeploymentWire{Name: a.Deployment, Servers: a.Sources})
	}
	f.Add(mustJSON(f, fromGolden))
	f.Add(mustJSON(f, deltaAuditRequest("delta")))
	for _, s := range []string{
		`{"deployments":[{"name":"a","servers":["s1","s1"]}]}`,
		`{"deployments":[{"name":"a","servers":["s1"],"kinds":["network","network","disk"]}]}`,
		`{"deployments":[{"name":"a","servers":["s1"],"needed":-1},{"name":"b","servers":["s2"]}]}`,
		`{"deployments":[{"name":"x","servers":["nobody"],"kinds":["software"]},{"name":"x","servers":["nobody"]}],"algorithm":"failure-sampling","rounds":10}`,
		`{"deployments":[{"name":"a","servers":["s1","s2"]}],"algorithm":"failure-sampling","rounds":2000,"sampler_workers":1}`,
		`{"deployments":[{"name":"a","servers":["s1","s2"]}],"algorithm":"failure-sampling","rounds":2000,"sampler_workers":1000000}`,
		`{"deployments":[]}`,
		`{"records":[{"kind":"bogus"}],"deployments":[{"name":"a","servers":["s1"]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var req SubmitRequest
		if json.Unmarshal(blob, &req) != nil {
			return // the HTTP decoder's 400
		}
		p, err := req.prepare(s)
		if err != nil {
			if code := httpStatus(err); code/100 != 4 {
				t.Fatalf("request refused with %d: %v", code, err)
			}
			return
		}
		again, err := req.prepare(s)
		if err != nil {
			t.Fatalf("a second prepare refuses what the first took: %v", err)
		}
		if again.Key != p.Key || !slices.Equal(again.Parts, p.Parts) {
			t.Fatalf("a second prepare gives key %s parts %v, the first %s %v", again.Key, again.Parts, p.Key, p.Parts)
		}
		if len(req.Deployments) == 1 {
			if p.Parts != nil {
				t.Fatalf("a one-deployment request has parts %v", p.Parts)
			}
			return
		}
		if len(p.Parts) != len(req.Deployments) {
			t.Fatalf("%d deployments, %d parts", len(req.Deployments), len(p.Parts))
		}
		for i := range req.Deployments {
			sub := req
			sub.Deployments = req.Deployments[i : i+1]
			one, err := sub.prepare(s)
			if err != nil || one.Key != p.Parts[i] {
				t.Fatalf("deployment %d: its one-deployment request prepares to %v (%v), the part says %s", i, one, err, p.Parts[i])
			}
		}
	})
}

// FuzzRecommendPrepare drives the recommend kind's submission boundary
// through normalize and prepare against a fixed server database: a request is
// refused with a 4xx, or it prepares to an address two prepares agree on and
// its search runs. The search's shape is checked at submission — a search the
// engine refuses is a 400, never a failed job — so only the records it reads
// can fail it (a candidate with no records of the requested kinds), as they
// can an audit. Nothing panics.
func FuzzRecommendPrepare(f *testing.F) {
	db := depdb.New()
	var all []deps.Record
	for _, w := range fixtureRecords(f) {
		r, err := w.Record()
		if err != nil {
			f.Fatal(err)
		}
		all = append(all, r)
	}
	if err := db.Put(all...); err != nil {
		f.Fatal(err)
	}
	s := New(Config{Workers: 1, DB: db})
	f.Cleanup(func() { shutdown(f, s) })

	blob, err := os.ReadFile(requestFixtures[1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	var smoke RecommendRequest
	if err := json.Unmarshal(blob, &smoke); err != nil {
		f.Fatal(err)
	}
	server := smoke
	server.Records = nil // the same search against the server database
	f.Add(mustJSON(f, &server))
	for _, strategy := range []string{"greedy", "beam", "auto"} {
		req := server
		req.Strategy, req.Replicas, req.Fixed = strategy, 3, []string{"n1"}
		f.Add(mustJSON(f, &req))
	}
	for _, body := range []string{
		`{"nodes":["n1","n2","n3"],"replicas":2,"algorithm":"failure-sampling","rounds":500,"failure_prob":0.1}`,
		`{"nodes":["n1","n2"],"replicas":3}`,
		`{"nodes":["n1","n1"],"replicas":2}`,
		`{"nodes":["n1","n2"],"fixed":["n1","n2"],"replicas":2}`,
		`{"nodes":["nobody","n2"],"replicas":2,"kinds":["software"]}`,
		`{"replicas":2,"kinds":["disk"]}`,
		`{"replicas":2,"strategy":"exact","max_candidates":1}`,
		`{"replicas":0}`,
		`{"replicas":2,"top_k":-1,"beam_width":-1}`,
		`{"replicas":2,"records":[{"kind":"bogus"}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var req RecommendRequest
		if json.Unmarshal(blob, &req) != nil {
			return // the HTTP decoder's 400
		}
		p, err := req.prepare(s)
		if err != nil {
			if code := httpStatus(err); code/100 != 4 {
				t.Fatalf("request refused with %d: %v", code, err)
			}
			return
		}
		again, err := req.prepare(s)
		if err != nil {
			t.Fatalf("a second prepare refuses what the first took: %v", err)
		}
		if again.Key != p.Key {
			t.Fatalf("a second prepare gives key %s, the first %s", again.Key, p.Key)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := p.Run(ctx); err != nil && strings.HasPrefix(err.Error(), "placement:") {
			t.Fatalf("the engine refuses a search submission accepted: %v", err)
		}
	})
}

// FuzzPSOPHop drives a provider proxy's step endpoint — the trust boundary a
// supervisor, or anyone who can reach the proxy, crosses — with an arbitrary
// run id and body: the step is refused with a 4xx, or the reply carries the
// proxy's fingerprint and exactly as many 32-byte points as were sent (its own
// set's count for an own-set step). Nothing panics, and the open-run table
// never exceeds its cap.
func FuzzPSOPHop(f *testing.F) {
	h, err := NewProxy([]string{"pkg:a", "pkg:b", "pkg:shared"})
	if err != nil {
		f.Fatal(err)
	}
	px := h.(*proxy)
	key, err := commutative.NewKey(strings.NewReader(strings.Repeat("k", commutative.Size)))
	if err != nil {
		f.Fatal(err)
	}
	valid := key.EncryptElement([]byte("pkg:b"))
	one := make([]byte, commutative.Size)
	one[0] = 1
	for _, seed := range []struct {
		run  string
		step PSOPStep
	}{
		{"r1", PSOPStep{Ring: 2}},
		{"r1", PSOPStep{Ring: 2, Elements: [][]byte{valid[:]}}},
		{"r2", PSOPStep{Ring: 3, Elements: [][]byte{valid[:], valid[:]}}},
		{"r3", PSOPStep{Ring: 2, Elements: [][]byte{valid[:], make([]byte, commutative.Size)}}},
		{"r3", PSOPStep{Ring: 2, Elements: [][]byte{one}}},
		{"r4", PSOPStep{Ring: 2, Elements: [][]byte{valid[:31]}}},
		{"r5", PSOPStep{Ring: 1}},
		{"r5", PSOPStep{Ring: -4}},
		{"", PSOPStep{Ring: 2}},
		{strings.Repeat("x", maxRunID+1), PSOPStep{Ring: 2}},
	} {
		f.Add(seed.run, mustJSON(f, &seed.step))
	}
	f.Add("r6", []byte(`{"ring":2,"elements":["AAEC"],"extra":1}`))
	f.Add("r6", []byte(`{"ring":9223372036854775807}`))
	f.Add("r6", []byte(`[`))
	f.Add("r", []byte(`{"ring":22}}`)) // the handler reads one value and ignores what trails it
	f.Fuzz(func(t *testing.T, run string, body []byte) {
		// What was sent, as the handler's decoder reads it.
		var step PSOPStep
		sent := -1
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&step) == nil {
			sent = len(step.Elements)
		}
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/psop/run", bytes.NewReader(body))
		r.SetPathValue("run", run)
		px.handleStep(w, r)
		if n := px.openRuns(); n > maxProxyRuns {
			t.Fatalf("%d open runs, cap %d", n, maxProxyRuns)
		}
		if w.Code/100 == 4 {
			return
		}
		if w.Code != 200 {
			t.Fatalf("step answered %d: %s", w.Code, w.Body)
		}
		var rep PSOPReply
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatalf("undecodable reply %q: %v", w.Body, err)
		}
		want := sent
		if sent == 0 {
			want = px.info.Components
		}
		if rep.Fingerprint != px.info.Fingerprint || len(rep.Elements) != want {
			t.Fatalf("reply %s to %d elements, want %d points under %s", w.Body, sent, want, px.info.Fingerprint)
		}
		for i, e := range rep.Elements {
			if len(e) != commutative.Size {
				t.Fatalf("point %d has %d bytes", i, len(e))
			}
		}
	})
}

// FuzzPrivateAuditPrepare drives the private-audit kind's submission
// boundary — the HTTP decoder, then normalize and prepare — against two
// registries of the same two datasets: one daemon holds them, the other
// reaches them through proxies. A body that sets an option the request no
// longer has (where a dataset lives picks the protocol) is a 400 at the
// decoder. Any other body is refused with a 4xx by both daemons, or prepares
// on both to one address that a second prepare agrees on: a held and a
// proxied reference to one dataset share an address. Nothing panics.
func FuzzPrivateAuditPrepare(f *testing.F) {
	sets := map[string][]string{
		"CloudA": {"pkg:linux-image", "pkg:libc6", "pkg:openssl", "pkg:nginx", "pkg:zookeeper", "pkg:java-runtime"},
		"CloudB": {"pkg:linux-image", "pkg:libc6", "pkg:openssl", "pkg:httpd", "pkg:erlang"},
	}
	held, proxied := New(Config{Workers: 1}), New(Config{Workers: 1})
	f.Cleanup(func() { shutdown(f, held); shutdown(f, proxied) })
	for name, comps := range sets {
		if _, err := held.RegisterProvider(&RegisterProviderRequest{Name: name, Components: comps}); err != nil {
			f.Fatal(err)
		}
		registerProxy(f, proxied, name, serveProxy(f, comps))
	}

	blob, err := os.ReadFile("../../scripts/private_audit_request.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, option := range []string{`"protocol":"ks","bits":256`, `"protocol":"cleartext","bits":256`} {
		f.Add([]byte(`{"providers":[{"name":"CloudA"},{"name":"CloudB"}],` + option + `}`))
	}
	inline := testPrivateAuditRequest("inline")
	inline.Providers = []ProviderWire{
		{Name: "right", Components: []string{"pkg:y", "pkg:shared", "pkg:x", "pkg:y"}},
		{Name: "left", Components: []string{"pkg:shared", "pkg:c", "pkg:b", "pkg:a"}},
	}
	f.Add(mustJSON(f, inline))
	f.Add(mustJSON(f, testPrivateAuditRequest("by reference")))
	for _, body := range []string{
		`{"providers":[{"name":"CloudA"},{"name":"CloudB"},{"name":"mid","components":["pkg:libc6"]}],"deployments":[["CloudB","CloudA","mid"],["mid","CloudA"]],"minhash_m":64}`,
		`{"providers":[{"name":"CloudA"},{"name":"CloudB"}],"protocol":"ks","bits":64}`,
		`{"providers":[{"name":"CloudA"},{"name":"CloudA"}]}`,
		`{"providers":[{"name":"CloudA"},{"name":"CloudB"}],"deployments":[["CloudA"]]}`,
		`{"providers":[{"name":"CloudA"},{"name":"x","components":[""]}],"bits":-1}`,
		`{"providers":[{"name":"a/b"},{"name":""}],"protocol":"magic"}`,
		`{"providers":[{"name":"CloudB"},{"name":"CloudA","components":["pkg:libc6","pkg:nginx"]},{"name":"mid","components":["pkg:libc6"]}],"deployments":[["CloudB","CloudA","mid"],["mid","CloudA"]],"workers":3}`,
	} {
		f.Add([]byte(body))
	}
	removed := []string{"protocol", "bits", "minhash_m", "minhash_threshold", "ks_blind_bits"}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var req PrivateAuditRequest
		w := httptest.NewRecorder()
		if !decodeJSON(w, httptest.NewRequest(http.MethodPost, "/v1/private-audits", bytes.NewReader(blob)), &req) {
			if w.Code != 400 {
				t.Fatalf("the decoder answered %d", w.Code)
			}
			return
		}
		var fields map[string]json.RawMessage
		if json.Unmarshal(blob, &fields) == nil {
			for _, name := range removed {
				if _, ok := fields[name]; ok {
					t.Fatalf("a body setting %q was decoded: %s", name, blob)
				}
			}
		}
		p, err := req.prepare(held)
		q, perr := req.prepare(proxied)
		if err != nil {
			if code := httpStatus(err); code/100 != 4 {
				t.Fatalf("request refused with %d: %v", code, err)
			}
			if perr == nil {
				t.Fatalf("the proxied registry takes what the held one refuses: %v", err)
			}
			return
		}
		if perr != nil {
			t.Fatalf("the proxied registry refuses what the held one takes: %v", perr)
		}
		if q.Key != p.Key {
			t.Fatalf("held datasets address %s, the same datasets proxied %s", p.Key, q.Key)
		}
		again, err := req.prepare(held)
		if err != nil {
			t.Fatalf("a second prepare refuses what the first took: %v", err)
		}
		if again.Key != p.Key {
			t.Fatalf("a second prepare gives key %s, the first %s", again.Key, p.Key)
		}
	})
}

// FuzzParseEnvelope drives the bytes a daemon adopts without computing
// them: a disk record through parseEnvelope and a peer's /v1/cache body
// through EncodedResultFromPayload. Either the input is refused, or the
// adopted result writes an envelope that parses back to the same payload
// bytes and kind, and decodes or refuses to decode without panicking.
func FuzzParseEnvelope(f *testing.F) {
	stored, err := os.ReadFile("testdata/stored_result_pr12.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stored)
	for kind, path := range map[string]string{
		KindAudit:        "testdata/e2e_report_golden.json",
		KindRecommend:    "testdata/e2e_recommend_golden.json",
		KindPrivateAudit: "testdata/private_audit_golden.json",
	} {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var payload bytes.Buffer
		if err := json.Compact(&payload, blob); err != nil {
			f.Fatal(err)
		}
		f.Add(payload.Bytes())
		f.Add([]byte(`{"kind":"` + kind + `","payload":` + payload.String() + `}`))
	}
	for i := range stored {
		f.Add(stored[:i])
	}
	for _, s := range []string{
		`{"kind":"audit","payload":{}}`,
		`{"kind":"audit","payload":{"title":""}}`,
		`{"kind":"audit","payload":{"title":"\"}`,
		`{"kind":"audit","payload":{"title":"x\\"}}`,
		`{"kind":"recommend","payload":{"title":"t","rankings":null}}`,
		`{"kind":"private-audit","payload":[]}`,
		`{"kind":"nope","payload":{}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		check := func(from string, res *EncodedResult) {
			env := res.envelope()
			back, err := parseEnvelope(bytes.Clone(env))
			if err != nil {
				t.Fatalf("%s: the written envelope %q does not parse back: %v", from, env, err)
			}
			if back.kind != res.kind || !bytes.Equal(back.obj, res.obj) {
				t.Fatalf("%s: the envelope reads back as %s %q, want %s %q", from, back.kind.name, back.obj, res.kind.name, res.obj)
			}
			_, _ = res.Decode("fuzz") // refusing is fine; panicking is not
		}
		if res, err := parseEnvelope(bytes.Clone(blob)); err == nil {
			check("disk record", res)
		}
		if res, err := EncodedResultFromPayload(bytes.Clone(blob)); err == nil {
			check("peer payload", res)
		}
	})
}
