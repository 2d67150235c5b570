package auditd

// P-SOP over provider proxies: a proxy is one ring party behind HTTP, and the
// daemon supervises the ring. These tests pin that a proxied dataset has the
// inline dataset's address and result, that the daemon never holds a proxied
// provider's components, that every reply is checked before the ring relays
// it, and that a proxy bounds what a run may ask of its key.

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"indaas/internal/crypto/commutative"
	"indaas/internal/swpkg"
)

// table2Sets returns the four clouds of the paper's Table 2: each one's
// package closure, normalized as §4.2.3 says. The race detector slows the
// cipher tenfold, so under it each closure keeps its first 64 packages: what
// the tests compare (proxied against inline) does not depend on the size.
func table2Sets(t testing.TB) map[string][]string {
	t.Helper()
	u, roots := swpkg.KeyValueStoreUniverse()
	sets := make(map[string][]string, len(roots))
	for i, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			t.Fatal(err)
		}
		if raceEnabled {
			ids = ids[:64]
		}
		name := fmt.Sprintf("Cloud%d", i+1)
		for _, id := range ids {
			sets[name] = append(sets[name], "pkg:"+id)
		}
	}
	return sets
}

// table2Request audits every pair and triple of the four clouds, inline when
// sets is given and by reference otherwise.
func table2Request(title string, sets map[string][]string) *PrivateAuditRequest {
	req := &PrivateAuditRequest{Title: title, Deployments: [][]string{
		{"Cloud1", "Cloud2"}, {"Cloud1", "Cloud3"}, {"Cloud1", "Cloud4"},
		{"Cloud2", "Cloud3"}, {"Cloud2", "Cloud4"}, {"Cloud3", "Cloud4"},
		{"Cloud1", "Cloud2", "Cloud3"}, {"Cloud1", "Cloud2", "Cloud4"},
		{"Cloud1", "Cloud3", "Cloud4"}, {"Cloud2", "Cloud3", "Cloud4"},
	}}
	for _, name := range []string{"Cloud1", "Cloud2", "Cloud3", "Cloud4"} {
		req.Providers = append(req.Providers, ProviderWire{Name: name, Components: sets[name]})
	}
	return req
}

// serveProxy serves components behind a proxy and returns its endpoint.
func serveProxy(t testing.TB, components []string) string {
	t.Helper()
	h, err := NewProxy(components)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func registerProxy(t testing.TB, s *Server, name, endpoint string) ProviderInfo {
	t.Helper()
	info, err := s.RegisterProvider(&RegisterProviderRequest{Name: name, Endpoint: endpoint})
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// runPrivate submits req and returns the finished job and its result as JSON
// with the clock-dependent fields removed.
func runPrivate(t *testing.T, s *Server, req *PrivateAuditRequest) (JobStatus, string) {
	t.Helper()
	st, err := s.PrivateAudit(req)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, s, st.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return done, regexp.MustCompile(`"(elapsed_ns|pairs_per_sec)":[0-9.eE+-]+,?`).ReplaceAllString(string(blob), "")
}

// TestPSOPRingOverProxiesMatchesInline: Table 2 over four proxies (P-SOP)
// gives the inline request's response (counted in cleartext) on a fresh
// daemon — providers, fingerprints and Jaccards — under the same address,
// and on a daemon that already ran the inline audit the proxied one is a
// cache hit.
func TestPSOPRingOverProxiesMatchesInline(t *testing.T) {
	sets := table2Sets(t)
	inline := New(Config{Workers: 2})
	defer shutdown(t, inline)
	want, wantRes := runPrivate(t, inline, table2Request("table 2", sets))

	proxied := New(Config{Workers: 2})
	defer shutdown(t, proxied)
	for name, comps := range sets {
		endpoint := serveProxy(t, comps)
		registerProxy(t, proxied, name, endpoint)
		registerProxy(t, inline, name, endpoint)
	}
	got, gotRes := runPrivate(t, proxied, table2Request("table 2", nil))
	if got.CacheKey != want.CacheKey {
		t.Fatalf("proxied address %s, inline %s", got.CacheKey, want.CacheKey)
	}
	if gotRes != wantRes {
		t.Fatalf("proxied response differs from inline:\n%s\nvs\n%s", gotRes, wantRes)
	}

	before := inline.Stats().Computations
	hit, err := inline.PrivateAudit(table2Request("table 2", nil))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.CacheKey != want.CacheKey || inline.Stats().Computations != before {
		t.Fatalf("proxied resubmission after the inline audit = %+v, want a hit on %s", hit, want.CacheKey)
	}
}

// TestProxiedAuditHoldsNoPlaintext: a durable daemon that audits proxied
// providers holds no component string anywhere — not in its data directory,
// the provider list, the job status or the report — and after a restart it
// restores the registrations and serves the audit from disk.
func TestProxiedAuditHoldsNoPlaintext(t *testing.T) {
	sets := map[string][]string{
		"CloudA": {"pkg:zookeeper-3.4", "pkg:libc6-2.19", "pkg:openssl-1.0.1"},
		"CloudB": {"pkg:erlang-17", "pkg:libc6-2.19", "pkg:openssl-1.0.1", "pkg:httpd-2.4"},
	}
	dir := t.TempDir()
	s := New(Config{Workers: 1, Store: openStore(t, dir)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	for name, comps := range sets {
		if _, err := c.RegisterProxy(ctx, name, serveProxy(t, comps)); err != nil {
			t.Fatal(err)
		}
	}
	req := &PrivateAuditRequest{Title: "no plaintext", Providers: []ProviderWire{{Name: "CloudA"}, {Name: "CloudB"}}}
	st, err := c.PrivateAudit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	end, err := c.WaitDone(ctx, st.ID)
	if err != nil || end.State != StateDone {
		t.Fatalf("job = %+v, %v", end, err)
	}
	res, err := c.PrivateAuditResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// |{libc6, openssl}| / 5 distinct packages.
	if len(res.Entries) != 1 || res.Entries[0].Jaccard == nil || *res.Entries[0].Jaccard != 0.4 {
		t.Fatalf("result = %+v", res)
	}
	provs, err := c.Providers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gracefulShutdown(t, s)

	seen := []any{provs, end, res}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			blob, rerr := os.ReadFile(path)
			seen = append(seen, string(blob))
			return rerr
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seen {
		blob, _ := json.Marshal(v)
		for _, comps := range sets {
			for _, c := range comps {
				if strings.Contains(string(blob), strings.TrimPrefix(c, "pkg:")) {
					t.Fatalf("component %q held by the supervisor: %.200s", c, blob)
				}
			}
		}
	}

	s2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer gracefulShutdown(t, s2)
	if got := s2.Providers(); len(got) != 2 || got[0] != provs[0] || got[1] != provs[1] {
		t.Fatalf("restored providers %+v, want %+v", got, provs)
	}
	again, err := s2.PrivateAudit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.CacheKey != end.CacheKey || s2.Stats().Computations != 0 {
		t.Fatalf("post-restart resubmission = %+v, want a disk hit", again)
	}
}

// swapHandler serves whichever handler was stored last.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// TestProxyDriftFailsByName: a proxy whose dataset changed after it was
// registered fails the job by the provider's name and stores nothing under
// the stale address; registering it again makes the audit succeed.
func TestProxyDriftFailsByName(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	sw := new(swapHandler)
	h, err := NewProxy([]string{"pkg:a", "pkg:shared"})
	if err != nil {
		t.Fatal(err)
	}
	sw.h.Store(h)
	ts := httptest.NewServer(sw)
	defer ts.Close()
	registerProxy(t, s, "left", ts.URL)
	registerProxy(t, s, "right", serveProxy(t, []string{"pkg:b", "pkg:shared"}))

	changed, err := NewProxy([]string{"pkg:a", "pkg:shared", "pkg:new"})
	if err != nil {
		t.Fatal(err)
	}
	sw.h.Store(changed)
	req := &PrivateAuditRequest{Providers: []ProviderWire{{Name: "left"}, {Name: "right"}}}
	st, err := s.PrivateAudit(req)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitDone(t, s, st.ID)
	if failed.State != StateFailed || !strings.Contains(failed.Error, `provider "left"`) || !strings.Contains(failed.Error, "register it again") {
		t.Fatalf("drifted job = %+v, want a failure naming provider \"left\"", failed)
	}
	retry, err := s.PrivateAudit(req)
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached {
		t.Fatalf("a result was stored under the stale address: %+v", retry)
	}
	waitDone(t, s, retry.ID)

	info := registerProxy(t, s, "left", ts.URL)
	if info.Components != 3 {
		t.Fatalf("re-registration = %+v", info)
	}
	if done, _ := runPrivate(t, s, req); done.CacheKey == st.CacheKey {
		t.Fatal("the changed dataset kept the stale address")
	}
}

// hostileProxy answers GET /v1/psop honestly for components and every step
// with answer.
func hostileProxy(t *testing.T, components []string, answer http.HandlerFunc) string {
	t.Helper()
	honest, err := NewProxy(components)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/psop", honest)
	mux.HandleFunc("POST /v1/psop/{run}", answer)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestHostileProxyReplies: every reply is checked before the ring relays it.
// A wrong fingerprint, a wrong count, a short element, a body that is not
// JSON and an error status each fail the job by the provider's name, and no
// result is stored.
func TestHostileProxyReplies(t *testing.T) {
	comps := []string{"pkg:a", "pkg:b", "pkg:shared"}
	fp := providerFingerprint(comps)
	point := make([]byte, commutative.Size)
	point[0] = 9
	points := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = point
		}
		return out
	}
	cases := []struct {
		name   string
		answer http.HandlerFunc
		want   string
	}{
		{"wrong fingerprint", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, 200, PSOPReply{Fingerprint: providerFingerprint([]string{"pkg:other"}), Elements: points(3)})
		}, "register it again"},
		{"wrong count", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, 200, PSOPReply{Fingerprint: fp, Elements: points(2)})
		}, "answered 2 points, want 3"},
		{"short element", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, 200, PSOPReply{Fingerprint: fp, Elements: [][]byte{point, point, point[:31]}})
		}, "element 2 has 31 bytes"},
		{"not json", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("<html>proxy</html>"))
		}, "invalid character"},
		{"error status", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, 500, errorBody{Error: "proxy broke"})
		}, "proxy broke"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1})
			defer shutdown(t, s)
			registerProxy(t, s, "hostile", hostileProxy(t, comps, tc.answer))
			registerProxy(t, s, "honest", serveProxy(t, []string{"pkg:c", "pkg:shared"}))
			req := &PrivateAuditRequest{Providers: []ProviderWire{{Name: "hostile"}, {Name: "honest"}}}
			st, err := s.PrivateAudit(req)
			if err != nil {
				t.Fatal(err)
			}
			end := waitDone(t, s, st.ID)
			if end.State != StateFailed || !strings.Contains(end.Error, `provider "hostile"`) || !strings.Contains(end.Error, tc.want) {
				t.Fatalf("job = %+v, want a failure naming provider \"hostile\" and %q", end, tc.want)
			}
			again, err := s.PrivateAudit(req)
			if err != nil {
				t.Fatal(err)
			}
			if again.Cached {
				t.Fatalf("a hostile reply's result was stored: %+v", again)
			}
			waitDone(t, s, again.ID)
		})
	}
}

// TestRegisterProxyErrors: components and an endpoint together, or an
// endpoint that is not a URL, are a 400, and a proxy that cannot be reached
// is a 502.
func TestRegisterProxyErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for _, tc := range []struct {
		req  RegisterProviderRequest
		code int
		want string
	}{
		{RegisterProviderRequest{Name: "p", Components: []string{"a"}, Endpoint: "http://127.0.0.1:1"}, 400, "not both"},
		{RegisterProviderRequest{Name: "p", Endpoint: "127.0.0.1:7002"}, 400, "not an http(s) URL"},
		{RegisterProviderRequest{Name: "p", Endpoint: dead.URL}, 502, "proxy"},
	} {
		_, err := s.RegisterProvider(&tc.req)
		if err == nil || httpStatus(err) != tc.code || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("register %+v = %v (status %d), want %d mentioning %q", tc.req, err, httpStatus(err), tc.code, tc.want)
		}
	}
	if len(s.Providers()) != 0 {
		t.Fatalf("a refused registration was kept: %+v", s.Providers())
	}
}

func (p *proxy) openRuns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.runs)
}

// proxyStep posts one step to h and decodes the reply.
func proxyStep(h http.Handler, run string, step PSOPStep) (int, PSOPReply, string) {
	body, _ := json.Marshal(step)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/psop/"+run, strings.NewReader(string(body))))
	var rep PSOPReply
	json.Unmarshal(w.Body.Bytes(), &rep)
	return w.Code, rep, w.Body.String()
}

// TestProxyRefusesDegenerateElements: a dishonest predecessor could plant a
// low-order point, which every key maps to the same value and so matches at
// every party, or send bytes that are not a point at all. The step is a 400
// naming the run rather than a re-encryption of either.
func TestProxyRefusesDegenerateElements(t *testing.T) {
	h, err := NewProxy([]string{"pkg:a"})
	if err != nil {
		t.Fatal(err)
	}
	key, err := commutative.NewKey(strings.NewReader(strings.Repeat("k", commutative.Size)))
	if err != nil {
		t.Fatal(err)
	}
	valid := key.EncryptElement([]byte("pkg:b"))
	one := make([]byte, commutative.Size)
	one[0] = 1
	for _, tc := range []struct {
		name string
		elem []byte
	}{
		{"all-zero", make([]byte, commutative.Size)},
		{"one", one},
		{"short", valid[:commutative.Size-1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, body := proxyStep(h, "run-bad", PSOPStep{Ring: 2}); code != 200 {
				t.Fatalf("own step = %d %s", code, body)
			}
			code, _, body := proxyStep(h, "run-bad", PSOPStep{Ring: 2, Elements: [][]byte{valid[:], tc.elem}})
			if code != 400 || !strings.Contains(body, `run \"run-bad\"`) || strings.Contains(body, "no open run") {
				t.Fatalf("step answered %d %s, want a 400 naming the run", code, body)
			}
		})
	}
}

// TestProxyStepBounds: a proxy needs a dataset; a run opens with its own-set
// step, takes ring−1 re-encryptions under the same key and is then forgotten; a second own-set step,
// a re-encryption past ring−1 and a changed ring size are refused; and the
// open-run table never exceeds its cap.
func TestProxyStepBounds(t *testing.T) {
	if _, err := NewProxy(nil); err == nil {
		t.Fatal("a proxy over an empty component-set was made")
	}
	h, err := NewProxy([]string{"pkg:a", "pkg:b"})
	if err != nil {
		t.Fatal(err)
	}
	code, own, body := proxyStep(h, "r1", PSOPStep{Ring: 3})
	if code != 200 || len(own.Elements) != 2 || own.Fingerprint != providerFingerprint([]string{"pkg:a", "pkg:b"}) {
		t.Fatalf("own step = %d %s", code, body)
	}
	if code, _, body := proxyStep(h, "r1", PSOPStep{Ring: 3}); code != 400 || !strings.Contains(body, "second own-set step") {
		t.Fatalf("second own step = %d %s", code, body)
	}
	if code, _, body := proxyStep(h, "r1", PSOPStep{Ring: 4, Elements: own.Elements}); code != 400 || !strings.Contains(body, "began with 3") {
		t.Fatalf("changed ring = %d %s", code, body)
	}
	for hop := 0; hop < 2; hop++ {
		code, rep, body := proxyStep(h, "r1", PSOPStep{Ring: 3, Elements: own.Elements})
		if code != 200 || len(rep.Elements) != 2 {
			t.Fatalf("re-encryption %d = %d %s", hop, code, body)
		}
	}
	// The run is over: its key is gone, and the same id opens a new run
	// whose own-set step is its first.
	if code, _, body := proxyStep(h, "r1", PSOPStep{Ring: 3}); code != 200 {
		t.Fatalf("the finished run's id does not open a new run: %d %s", code, body)
	}
	if code, _, body := proxyStep(h, "r2", PSOPStep{Ring: 2, Elements: own.Elements}); code != 400 || !strings.Contains(body, "no open run") {
		t.Fatalf("a re-encryption opening a run = %d %s", code, body)
	}
	proxyStep(h, "r2", PSOPStep{Ring: 2})
	if code, _, body := proxyStep(h, "r2", PSOPStep{Ring: 2, Elements: own.Elements}); code != 200 {
		t.Fatalf("r2 re-encryption = %d %s", code, body)
	}
	if code, _, body := proxyStep(h, "r2", PSOPStep{Ring: 2, Elements: own.Elements}); code != 400 || !strings.Contains(body, "no open run") {
		t.Fatalf("re-encryption past ring-1 = %d %s", code, body)
	}

	px := h.(*proxy)
	for i := 0; i < 2*maxProxyRuns; i++ {
		if code, _, body := proxyStep(h, fmt.Sprintf("open-%d", i), PSOPStep{Ring: 5}); code != 200 {
			t.Fatalf("open run %d = %d %s", i, code, body)
		}
		if n := px.openRuns(); n > maxProxyRuns {
			t.Fatalf("%d open runs, cap %d", n, maxProxyRuns)
		}
	}
	// The oldest runs were dropped: a re-encryption of one is refused, not
	// served under a fresh key, and its own-set step begins it anew.
	if code, _, body := proxyStep(h, "open-0", PSOPStep{Ring: 5, Elements: own.Elements}); code != 400 || !strings.Contains(body, "no open run") {
		t.Fatalf("a re-encryption of an evicted run = %d %s", code, body)
	}
	if code, _, body := proxyStep(h, "open-0", PSOPStep{Ring: 5}); code != 200 {
		t.Fatalf("an evicted run's id = %d %s", code, body)
	}
}
