package auditd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"indaas/internal/report"
)

// maxResponseBody is the client-side read cap. Reports can dwarf requests
// (a k=24 fat-tree audit carries >10⁴ risk groups), so this is deliberately
// far larger than the server's request bound — a sanity stop, not a budget.
// A variable so tests can shrink it.
var maxResponseBody int64 = 1 << 30

// readBody reads a response body, into an array of its exact length when the
// server sent a Content-Length — with spare, one of spareBodies when one
// fits; a body over maxResponseBody is an error here rather than a JSON
// syntax error on a silently cut-off read.
func readBody(resp *http.Response, spare bool) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= maxResponseBody {
		var b []byte
		if spare {
			if p, _ := spareBodies.Get().(*[]byte); p != nil && int64(cap(*p)) >= n && int64(cap(*p)) <= 2*n {
				b = (*p)[:n]
			}
		}
		if b == nil {
			b = make([]byte, n)
		}
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, err
		}
		// Read on to EOF, which lets the transport reuse the connection.
		var one [1]byte
		switch k, err := resp.Body.Read(one[:]); {
		case k > 0:
			return nil, fmt.Errorf("auditd: response body runs past its Content-Length of %d bytes", n)
		case err != nil && err != io.EOF:
			return nil, err
		}
		return b, nil
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBody+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > maxResponseBody {
		return nil, fmt.Errorf("auditd: response exceeds %d bytes", maxResponseBody)
	}
	return buf.Bytes(), nil
}

// RetryPolicy controls the client's backoff on transient failures: refused
// connections (daemon restarting), 429 (queue full) and 502/503/504.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request; 1 disables
	// retries and <= 0 means the default (6).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); MaxDelay
	// caps it (default 3s). A server Retry-After hint overrides a shorter
	// computed delay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy is what NewClient installs: six attempts spanning
// roughly five seconds — enough to ride out a daemon restart or a briefly
// full queue without masking a real outage for long.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: 3 * time.Second}

// backoff is the capped, jittered exponential delay before attempt+2; a
// server Retry-After hint wins when longer. Jitter de-synchronizes clients
// hammering a recovering daemon.
func (p RetryPolicy) backoff(attempt int, hint time.Duration) time.Duration {
	base, cap := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = DefaultRetryPolicy.BaseDelay
	}
	if cap <= 0 {
		cap = DefaultRetryPolicy.MaxDelay
	}
	d := base << uint(attempt)
	if d <= 0 || d > cap {
		d = cap
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // 50%..150%
	if hint > d {
		d = hint
	}
	return d
}

// Client talks to an audit service over its HTTP/JSON API.
type Client struct {
	// bases lists the endpoints this client may talk to: the NewClient base
	// first, then any SetPeers additions. Requests target the current base;
	// a refused connection rotates to the next one, so failover retries move
	// on to a live node instead of hammering a dead one.
	bases []string
	idx   atomic.Int64
	// header holds extra headers applied to every request (see SetHeader).
	header map[string]string
	hc     *http.Client
	// Retry is the transient-failure policy applied to every call. Every
	// call is idempotent — submits are content-addressed, polls and fetches
	// read-only, and an ingest of records already on file changes nothing —
	// so a request whose fate is unknown (the connection broke mid-flight) is
	// resent like one that provably never arrived.
	Retry RetryPolicy
}

// NewClient returns a client for the service at base, e.g.
// "http://127.0.0.1:7080". The optional hc overrides http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{bases: []string{strings.TrimRight(base, "/")}, hc: hc, Retry: DefaultRetryPolicy}
}

// SetPeers adds fallback endpoints the client rotates to when the current
// one refuses connections — the other nodes of an auditd cluster, where any
// node can answer any request. Endpoints already known are skipped.
// Configure peers before issuing requests; SetPeers is not safe to call
// concurrently with in-flight calls.
func (c *Client) SetPeers(peers ...string) {
	for _, p := range peers {
		p = strings.TrimRight(p, "/")
		if p == "" {
			continue
		}
		known := false
		for _, b := range c.bases {
			if b == p {
				known = true
				break
			}
		}
		if !known {
			c.bases = append(c.bases, p)
		}
	}
}

// SetHeader attaches a header to every request the client sends (the
// cluster router uses this to mark forwarded and replicated traffic).
// Configure headers before issuing requests; SetHeader is not safe to call
// concurrently with in-flight calls.
func (c *Client) SetHeader(key, value string) {
	if c.header == nil {
		c.header = make(map[string]string)
	}
	c.header[key] = value
}

// currentBase is the endpoint requests currently target.
func (c *Client) currentBase() string {
	return c.bases[int(c.idx.Load())%len(c.bases)]
}

// rotate advances to the next endpoint after a refused connection. With a
// single base it is a no-op and retries stay on the one endpoint.
func (c *Client) rotate() {
	if len(c.bases) > 1 {
		c.idx.Add(1)
	}
}

// do marshals body once and runs the attempt loop.
func (c *Client) do(ctx context.Context, method, path string, body, out interface{}) error {
	var blob []byte
	if body != nil {
		var err error
		blob, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	return c.send(ctx, method, path, blob, out)
}

// send runs the attempt loop over an encoded body (nil for none).
func (c *Client) send(ctx context.Context, method, path string, blob []byte, out interface{}) error {
	attempts := c.Retry.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultRetryPolicy.MaxAttempts
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, blob, out)
		if err == nil || attempt+1 >= attempts {
			return err
		}
		retry, hint := transientError(err)
		if !retry {
			return err
		}
		if errors.Is(err, syscall.ECONNREFUSED) {
			// The node is down, not busy: move the next attempt to a peer
			// (no-op without peers) instead of waiting out a dead endpoint.
			c.rotate()
		}
		if sleepCtx(ctx, c.Retry.backoff(attempt, hint)) != nil {
			return err // the caller's deadline beats another attempt
		}
	}
}

func (c *Client) doOnce(ctx context.Context, method, path string, blob []byte, out interface{}) error {
	var rd io.Reader
	if blob != nil {
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.currentBase()+path, rd)
	if err != nil {
		return err
	}
	if blob != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range c.header {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, raw := out.(*[]byte) // the body the caller decodes, or keeps
	body, err := readBody(resp, raw)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return responseError(resp, body)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte: // the caller decodes: hand the body over as read
		*out = body
		return nil
	default:
		return json.Unmarshal(body, out)
	}
}

// responseError turns an error response into a statusErr carrying the server's
// message (the JSON error envelope, when the body is one) and Retry-After hint.
func responseError(resp *http.Response, body []byte) error {
	se := &statusErr{code: resp.StatusCode, err: fmt.Errorf("auditd: HTTP %d", resp.StatusCode)}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		se.retryAfter = time.Duration(secs) * time.Second
	}
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		se.err = fmt.Errorf("auditd: %s", eb.Error)
	}
	return se
}

// transientError classifies an error as worth retrying, with the server's
// Retry-After hint when one came back: 429 and 502/503/504, and any transport
// failure that is not the caller's own context ending — whether or not the
// request reached the daemon, resending it is safe (see Client.Retry).
func transientError(err error) (bool, time.Duration) {
	var se *statusErr
	if errors.As(err, &se) {
		switch se.code {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true, se.retryAfter
		}
		return false, 0
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return !errors.Is(ue.Err, context.Canceled) && !errors.Is(ue.Err, context.DeadlineExceeded), 0
	}
	return false, 0
}

// sleepCtx waits d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// submit posts a wire request to its job kind's route.
func (c *Client) submit(ctx context.Context, k *jobKind, req any) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, k.route, req, &st)
	return st, err
}

// Submit submits an audit job.
func (c *Client) Submit(ctx context.Context, req *SubmitRequest) (JobStatus, error) {
	return c.submit(ctx, auditKind, req)
}

// SubmitWorkload re-submits a workload's wire request on the route of its
// kind: the cluster router's one call for relaying a job of any kind to the
// node that owns it, without interpreting the request.
func (c *Client) SubmitWorkload(ctx context.Context, w *Workload) (JobStatus, error) {
	k := kindByName(w.Kind)
	if k == nil || w.Wire == nil {
		return JobStatus{}, fmt.Errorf("auditd: workload %s (kind %q) has no wire form to submit", w.Key, w.Kind)
	}
	return c.submit(ctx, k, w.Wire)
}

// Status fetches a job's status; wait > 0 long-polls server-side.
func (c *Client) Status(ctx context.Context, id string, wait time.Duration) (JobStatus, error) {
	path := "/v1/audits/" + url.PathEscape(id)
	if wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	var st JobStatus
	err := c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// WaitDone long-polls until the job reaches a terminal state or ctx is
// done. It survives a daemon restart mid-poll: transient errors — refused
// connections while the daemon is down, 429/503 — are retried with backoff
// for as long as ctx allows, and a journal-recovering daemon serves the
// same job id again once it is back up. Hard errors (404 on an evicted
// job, 400s) still return immediately.
func (c *Client) WaitDone(ctx context.Context, id string) (JobStatus, error) {
	attempt := 0
	for {
		st, err := c.Status(ctx, id, 10*time.Second)
		if err != nil {
			retry, hint := transientError(err)
			if !retry {
				return st, err
			}
			if sleepCtx(ctx, c.Retry.backoff(attempt, hint)) != nil {
				return st, err
			}
			attempt++
			continue
		}
		attempt = 0
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// Report fetches a finished audit job's report. Asking for a
// recommendation or private-audit job's result is an error rather than a
// silently zero-valued report — the shared result endpoint serves all
// payload kinds.
func (c *Client) Report(ctx context.Context, id string) (*report.Report, error) {
	rep := new(report.Report)
	decode := func(body []byte) error { return report.DecodeJSON(body, rep) }
	if err := c.result(ctx, id, auditKind, decode, func() bool { return rep.Audits == nil }); err != nil {
		return nil, err
	}
	return rep, nil
}

// result fetches a finished job's payload from the shared endpoint and
// decodes it once with decode, into the result type of job kind want. Only a
// decode that failed or left its target without its kind's marker fields
// (per empty) is sniffed for being another kind's payload, so the success
// path reads the body exactly once.
func (c *Client) result(ctx context.Context, id string, want *jobKind, decode func(body []byte) error, empty func() bool) error {
	var body []byte
	if err := c.do(ctx, http.MethodGet, "/v1/audits/"+url.PathEscape(id)+"/report", nil, &body); err != nil {
		return err
	}
	err := decode(body)
	if err != nil || empty() {
		if kind := kindByName(resultKind(body)); kind != nil && kind != want {
			return fmt.Errorf("auditd: job %s is %s", id, kind.hint)
		}
	}
	if len(body) <= maxSpareBody {
		spareBodies.Put(&body)
	}
	return err
}

// spareBodies holds result bodies result has decoded, none of whose
// decoders keeps its input, for readBody to read the next raw body into; a
// body the caller keeps is never put here, and a spare that does not fit
// is dropped, so the pool holds no more bodies than results in flight.
var spareBodies sync.Pool // of *[]byte

const maxSpareBody = 1 << 20

// JobResult fetches a finished job's result — of any kind — and adopts the
// body as served, without decoding it (see EncodedResultFromPayload): what a
// cluster router relays from the node that computed a forwarded job.
func (c *Client) JobResult(ctx context.Context, id string) (*EncodedResult, error) {
	return c.encodedResult(ctx, "/v1/audits/"+url.PathEscape(id)+"/report")
}

// encodedResult GETs a result payload and adopts its bytes.
func (c *Client) encodedResult(ctx context.Context, path string) (*EncodedResult, error) {
	var body []byte
	if err := c.do(ctx, http.MethodGet, path, nil, &body); err != nil {
		return nil, err
	}
	return EncodedResultFromPayload(body)
}

// resultKind sniffs which workload kind a result payload belongs to: the
// first kind in the table whose markers it carries, else a report. "" means
// raw is not a JSON object.
func resultKind(raw []byte) string {
	var fields map[string]json.RawMessage
	if json.Unmarshal(raw, &fields) != nil {
		return ""
	}
	for _, k := range jobKinds {
		for _, m := range k.markers {
			if fields[m] != nil {
				return k.name
			}
		}
	}
	return KindAudit
}

// Recommend submits a placement recommendation job; poll it with Status or
// WaitDone like any audit job and fetch the result with RecommendResult.
func (c *Client) Recommend(ctx context.Context, req *RecommendRequest) (JobStatus, error) {
	return c.submit(ctx, recommendKind, req)
}

// RecommendResult fetches a finished recommendation job's ranking; asking
// for an audit job's result is an error (see Report).
func (c *Client) RecommendResult(ctx context.Context, id string) (*RecommendResponse, error) {
	res := new(RecommendResponse)
	decode := func(body []byte) error { return json.Unmarshal(body, res) }
	if err := c.result(ctx, id, recommendKind, decode, func() bool { return res.Strategy == "" && res.Rankings == nil }); err != nil {
		return nil, err
	}
	return res, nil
}

// PrivateAudit submits a private (PIA) audit job; poll it with Status or
// WaitDone like any audit job and fetch the result with PrivateAuditResult.
func (c *Client) PrivateAudit(ctx context.Context, req *PrivateAuditRequest) (JobStatus, error) {
	return c.submit(ctx, privateAuditKind, req)
}

// PrivateAuditResult fetches a finished private-audit job's report; asking
// for another job kind's result is an error (see Report).
func (c *Client) PrivateAuditResult(ctx context.Context, id string) (*PrivateAuditResponse, error) {
	res := new(PrivateAuditResponse)
	decode := func(body []byte) error { return json.Unmarshal(body, res) }
	if err := c.result(ctx, id, privateAuditKind, decode, func() bool { return res.Entries == nil }); err != nil {
		return nil, err
	}
	return res, nil
}

// RegisterProvider registers (or replaces) a private-audit provider dataset
// on the server. Registration is a last-write-wins set, so retries are
// safe.
func (c *Client) RegisterProvider(ctx context.Context, name string, components []string) (ProviderInfo, error) {
	var info ProviderInfo
	err := c.do(ctx, http.MethodPost, "/v1/providers", &RegisterProviderRequest{Name: name, Components: components}, &info)
	return info, err
}

// RegisterProxy registers (or replaces) a provider whose dataset stays
// behind its P-SOP proxy at endpoint: the server fetches the proxy's
// fingerprint and count, and supervises every ring over the proxy.
func (c *Client) RegisterProxy(ctx context.Context, name, endpoint string) (ProviderInfo, error) {
	var info ProviderInfo
	err := c.do(ctx, http.MethodPost, "/v1/providers", &RegisterProviderRequest{Name: name, Endpoint: endpoint}, &info)
	return info, err
}

// Providers lists the server's registered private-audit datasets
// (fingerprints and component counts only).
func (c *Client) Providers(ctx context.Context) ([]ProviderInfo, error) {
	var out struct {
		Providers []ProviderInfo `json:"providers"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/providers", nil, &out)
	return out.Providers, err
}

// Ingest reports dependency records to the server's database and returns
// the database's canonical fingerprint. The database holds current state, so
// ingest is idempotent — records already on file change neither the
// fingerprint nor anything downstream of it — and a batch whose first attempt
// may or may not have landed is resent like any other request.
//
// The body is appended by hand (the record codec), byte for byte what
// json.Marshal(&IngestRequest{Records: records}) writes.
func (c *Client) Ingest(ctx context.Context, records []RecordWire) (IngestResponse, error) {
	var resp IngestResponse
	body := appendIngest(make([]byte, 0, ingestSize(records)), records)
	err := c.send(ctx, http.MethodPost, "/v1/depdb", body, &resp)
	return resp, err
}

// Cancel cancels a job (idempotent).
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/audits/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Trace fetches a job's phase timeline (GET /v1/audits/{id}/trace): the
// named pipeline phases a cold computation passed through, with monotonic
// offsets and durations. Hit-path jobs return an empty timeline.
func (c *Client) Trace(ctx context.Context, id string) (TraceResponse, error) {
	var tr TraceResponse
	err := c.do(ctx, http.MethodGet, "/v1/audits/"+url.PathEscape(id)+"/trace", nil, &tr)
	return tr, err
}

// Cached looks a report up by its content address.
func (c *Client) Cached(ctx context.Context, key string) (*report.Report, error) {
	var rep report.Report
	if err := c.do(ctx, http.MethodGet, "/v1/cache/"+url.PathEscape(key), nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// CachedResult looks any result kind up by its content address and adopts
// the body as served, sniffing its kind without decoding it: the form a
// cluster peer tier hands straight to the local result tiers, where a key's
// kind is not known in advance — the typed Cached would silently mis-decode a
// recommendation into an almost-empty report.
func (c *Client) CachedResult(ctx context.Context, key string) (*EncodedResult, error) {
	return c.encodedResult(ctx, "/v1/cache/"+url.PathEscape(key))
}

// Metrics fetches the raw metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.currentBase()+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	blob, err := readBody(resp, false)
	return string(blob), err
}

// Watcher is a live /v1/watch stream. Next blocks for the following event;
// Close ends the stream. The watcher survives transient failures — a
// refused connection while the daemon restarts, 429/503, a dropped stream —
// by resubscribing with the client's backoff, so delivery across a daemon
// restart is at-least-once: after a resubscribe the server replays the
// subscription's initial report and Seq restarts from 1.
type Watcher struct {
	c      *Client
	ctx    context.Context
	cancel context.CancelFunc
	blob   []byte // the subscription request, resent on every (re)connect
	body   io.ReadCloser
	rd     *bufio.Reader
}

// Watch subscribes to an audit request over SSE: the request is audited
// immediately and re-audited after every ingest touching its deployments,
// each report arriving as a WatchEvent. The stream lives until ctx is done
// or Close is called.
func (c *Client) Watch(ctx context.Context, req *SubmitRequest) (*Watcher, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &Watcher{c: c, ctx: wctx, cancel: cancel, blob: blob}
	if err := w.connect(); err != nil {
		cancel()
		return nil, err
	}
	return w, nil
}

// connect (re)establishes the stream with one POST /v1/watch.
func (w *Watcher) connect() error {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodPost, w.c.currentBase()+"/v1/watch", bytes.NewReader(w.blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	for k, v := range w.c.header {
		req.Header.Set(k, v)
	}
	resp, err := w.c.hc.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return responseError(resp, body)
	}
	w.body = resp.Body
	w.rd = bufio.NewReader(resp.Body)
	return nil
}

// Next returns the stream's next event. Transport failures and server-side
// stream ends (shutdown, eviction) resubscribe with backoff until ctx is
// done; non-transient rejections (e.g. a 400 on a request the database
// outgrew) are returned.
func (w *Watcher) Next() (*WatchEvent, error) {
	attempt := 0
	for {
		if w.rd != nil {
			ev, err := w.readEvent()
			if err == nil {
				return ev, nil
			}
			// The stream broke or the server closed it: drop the connection
			// and fall through to resubscribe.
			w.closeBody()
		}
		if err := w.ctx.Err(); err != nil {
			return nil, err
		}
		if err := w.connect(); err != nil {
			retry, hint := transientError(err)
			if !retry {
				return nil, err
			}
			if errors.Is(err, syscall.ECONNREFUSED) {
				w.c.rotate() // resubscribe on a live peer, if the client has one
			}
			if sleepCtx(w.ctx, w.c.Retry.backoff(attempt, hint)) != nil {
				return nil, w.ctx.Err()
			}
			attempt++
			continue
		}
		attempt = 0
	}
}

// readEvent parses SSE frames until one report event arrives. Heartbeat
// comments are skipped; a closed frame or EOF ends the stream. A frame's data
// is read once, as bytes, into one buffer — its "data:" lines concatenated —
// and decoded from there; like every other response it may not pass
// maxResponseBody.
func (w *Watcher) readEvent() (*WatchEvent, error) {
	var event string
	var data []byte // the frame's data so far; the line being read is appended behind it
	for {
		n := len(data)
		for {
			frag, err := w.rd.ReadSlice('\n')
			if data = append(data, frag...); int64(len(data)) > maxResponseBody {
				return nil, fmt.Errorf("auditd: response exceeds %d bytes", maxResponseBody)
			}
			if err == nil {
				break
			}
			if err != bufio.ErrBufferFull { // a line longer than the reader's buffer comes in pieces
				return nil, err
			}
		}
		line := bytes.TrimRight(data[n:], "\r\n")
		data = data[:n]
		switch {
		case len(line) == 0:
			if event == "closed" {
				return nil, errors.New("auditd: watch stream closed by server")
			}
			if event == "report" && len(data) > 0 {
				return decodeWatchEvent(data)
			}
			event, data = "", data[:0] // unknown frame; keep reading
		case line[0] == ':': // heartbeat comment
		case bytes.HasPrefix(line, []byte("event:")):
			event = string(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimSpace(line[len("data:"):])...) // closes up over the prefix
		}
	}
}

// decodeWatchEvent decodes one report frame's data. encoding/json only
// steps over the report, as raw bytes, and the report codec decodes it once.
func decodeWatchEvent(data []byte) (*WatchEvent, error) {
	frame := struct {
		*WatchEvent
		Report json.RawMessage `json:"report,omitempty"`
	}{WatchEvent: new(WatchEvent)}
	if err := json.Unmarshal(data, &frame); err != nil {
		return nil, err
	}
	if len(frame.Report) > 0 && string(frame.Report) != "null" {
		frame.WatchEvent.Report = new(report.Report)
		if err := report.DecodeJSON(frame.Report, frame.WatchEvent.Report); err != nil {
			return nil, err
		}
	}
	return frame.WatchEvent, nil
}

func (w *Watcher) closeBody() {
	if w.body != nil {
		w.body.Close()
		w.body, w.rd = nil, nil
	}
}

// Close ends the stream and releases the connection.
func (w *Watcher) Close() {
	w.cancel()
	w.closeBody()
}
