package auditd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"indaas/internal/telemetry"
)

// maxRequestBody bounds submit bodies (inline record sets included) at 32 MiB.
const maxRequestBody = 32 << 20

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, k := range jobKinds {
		mux.HandleFunc("POST "+k.route, s.handleJob(k))
	}
	mux.HandleFunc("POST /v1/providers", s.handleRegisterProvider)
	mux.HandleFunc("GET /v1/providers", s.handleProviders)
	mux.HandleFunc("POST /v1/depdb", s.handleIngest)
	mux.HandleFunc("GET /v1/watch", s.handleWatch)
	mux.HandleFunc("POST /v1/watch", s.handleWatch)
	mux.HandleFunc("GET /v1/audits", s.handleList)
	mux.HandleFunc("GET /v1/audits/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/audits/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/audits/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/audits/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCached)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON renders v as one compact JSON line and sends it in one write,
// Content-Length set so clients can size their read. Encoding happens before
// any header is written, so a value encoding/json rejects becomes a 500 with
// the error envelope, not a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		body.Reset()
		code = http.StatusInternalServerError
		json.NewEncoder(&body).Encode(errorBody{Error: "encode response: " + err.Error()}) // a string cannot fail
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.WriteHeader(code)
	w.Write(body.Bytes()) // client gone mid-write is not actionable
}

// writeResult serves a finished job's payload — the bodies that dwarf every
// other response — without touching a codec: the stored bytes go out as
// they are, behind a few bytes carrying the title.
func (s *Server) writeResult(w http.ResponseWriter, res *EncodedResult, title string, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	head := res.head(title)
	n := len(head) + len(res.obj) - 1
	s.m.ResultBytes.Add(int64(n))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(200)
	w.Write(head)        // client gone mid-write is not actionable
	w.Write(res.obj[1:]) // ditto
}

// reply answers a call's outcome: v as a 200, or err's status and envelope.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, 200, v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		// A transient condition (full queue, rate limit, shutdown, degraded
		// store): tell well-behaved clients — including Client's backoff —
		// when to retry. The rate limiter quotes its refill time; everything
		// else defaults to one second (the header granularity's floor).
		secs := 1
		var se *statusErr
		if errors.As(err, &se) && se.retryAfter > 0 {
			if s := int(se.retryAfter.Seconds() + 0.999); s > secs {
				secs = s
			}
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// decodeJSON parses a bounded, unknown-field-rejecting JSON body into v; on
// failure it writes the 400 envelope and reports false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, 400, errorBody{Error: "bad request body: " + err.Error()})
		return false
	}
	return true
}

// ForwardedHeader marks a request a cluster peer already routed once: the
// receiving node must compute it locally (single-hop ownership, no forward
// loops). ReplicatedHeader marks an ingest pushed by a peer's replication:
// admitted without rate limiting and not replicated onward. Both are honoured
// only from a peer (see peerMarked).
const (
	ForwardedHeader  = "X-Indaas-Forwarded"
	ReplicatedHeader = "X-Indaas-Replicated"
)

// peerMarked reports whether r carries header, a mark only a cluster peer may
// set. From anyone else — and on a standalone daemon, from anyone — the mark
// would skip admission or replication, so the request is answered 403 here
// and ok is false. The peer check is by source address: it cannot tell two
// processes on one host apart.
func (s *Server) peerMarked(w http.ResponseWriter, r *http.Request, header string) (marked, ok bool) {
	if r.Header.Get(header) == "" {
		return false, true
	}
	if s.cfg.Cluster == nil || !s.cfg.Cluster.FromPeer(r) {
		writeJSON(w, http.StatusForbidden, errorBody{Error: header + " is honoured only from cluster peers"})
		return true, false
	}
	return true, true
}

// handleJob serves a job kind's submission route: it notes whether a cluster
// peer already routed the request, decodes the kind's request, submits it, and
// answers 202 (accepted, result pending) or 200 (a result tier already held
// the answer). Whatever the kind, the job's lifecycle — poll, result, cancel —
// then runs through the shared /v1/audits/{id} endpoints.
func (s *Server) handleJob(k *jobKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		forwarded, ok := s.peerMarked(w, r, ForwardedHeader)
		req := k.newRequest()
		if !ok || !decodeJSON(w, r, req) {
			return
		}
		st, err := s.submitJob(k, req, origin{forwarded: forwarded})
		if err != nil {
			writeErr(w, err)
			return
		}
		telemetry.AnnotateJob(r, st.ID)
		code := 202
		if st.State == StateDone {
			code = 200
		}
		writeJSON(w, code, st)
	}
}

// handleRegisterProvider registers (or replaces) a private-audit provider
// dataset.
func (s *Server) handleRegisterProvider(w http.ResponseWriter, r *http.Request) {
	var req RegisterProviderRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	info, err := s.RegisterProvider(&req)
	reply(w, info, err)
}

// handleProviders lists registered provider datasets — fingerprints and
// component counts only, never the components themselves.
func (s *Server) handleProviders(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, struct {
		Providers []ProviderInfo `json:"providers"`
	}{s.Providers()})
}

// handleIngest appends dependency records to the server's database. The
// body is decoded by the record codec straight into validated records.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	replicated, ok := s.peerMarked(w, r, ReplicatedHeader)
	if !ok {
		return
	}
	body, err := readRequestBody(w, r)
	if err != nil {
		writeErr(w, badBody(err))
		return
	}
	records, err := decodeIngest(body)
	var resp IngestResponse
	if err == nil {
		resp, err = s.ingest(records, replicated)
	}
	reply(w, resp, err)
}

// readRequestBody reads a body of at most maxRequestBody bytes, in one
// buffer when the request says how long it is.
func readRequestBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	if n := r.ContentLength; n > 0 && n <= maxRequestBody {
		buf := make([]byte, n)
		_, err := io.ReadFull(body, buf)
		return buf, err
	}
	return io.ReadAll(body)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, 200, struct {
		Jobs []JobStatus `json:"jobs"`
	}{s.Jobs()})
}

// maxStatusWait caps one ?wait long-poll. A wait above the cap is silently
// truncated and the response may carry a NON-terminal state with code 200 —
// clients must keep polling until the state is terminal (Client.WaitDone
// does) rather than treat any 200 as completion. A variable so tests can
// shrink the cap.
var maxStatusWait = time.Minute

// handleStatus returns a job's status; ?wait=5s long-polls until the job is
// terminal or the wait elapses (capped at maxStatusWait).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeJSON(w, 400, errorBody{Error: "bad wait duration"})
			return
		}
		if d > maxStatusWait {
			d = maxStatusWait
		}
		wait = d
	}
	telemetry.AnnotateJob(r, r.PathValue("id"))
	st, err := s.WaitDone(r.Context(), r.PathValue("id"), wait)
	reply(w, st, err)
}

// handleTrace returns a job's phase timeline as JSON (GET
// /v1/audits/{id}/trace, for a job of any kind).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	telemetry.AnnotateJob(r, r.PathValue("id"))
	resp, err := s.Trace(r.PathValue("id"))
	reply(w, resp, err)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	res, title, _, err := s.resolve(r.PathValue("id"))
	s.writeResult(w, res, title, err)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	reply(w, st, err)
}

func (s *Server) handleCached(w http.ResponseWriter, r *http.Request) {
	res, err := s.Cached(r.PathValue("key"))
	s.writeResult(w, res, "", err)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	rows := s.Stats().rows()
	if s.cfg.Cluster != nil {
		rows = append(rows, s.cfg.Cluster.Metrics()...)
	}
	writeMetrics(w, rows)
}

// handleHealthz reports liveness plus the served database's identity — the
// record count and canonical fingerprint — so an operator (or the restart
// smoke test) can confirm a restarted daemon serves the same data. Status
// flips to "degraded" (with the reason and the error count) while repeated
// store failures have the daemon serving memory-only; OK stays true — the
// daemon is alive and answering, just not durable.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		OK             bool    `json:"ok"`
		Status         string  `json:"status"`
		Durable        bool    `json:"durable"`
		DegradedReason string  `json:"degraded_reason,omitempty"`
		StoreErrors    int64   `json:"store_errors,omitempty"`
		DBRecords      int     `json:"db_records"`
		DBFingerprint  string  `json:"db_fingerprint,omitempty"`
		Uptime         float64 `json:"uptime"` // seconds since start
		Goroutines     int     `json:"goroutines"`
	}
	h := health{
		OK: true, Status: "ok", Durable: s.store != nil,
		Uptime:     time.Since(s.began).Seconds(),
		Goroutines: runtime.NumGoroutine(),
	}
	if s.store != nil {
		if deg, reason := s.breaker.degraded(); deg {
			h.Status = "degraded"
			h.Durable = false
			h.DegradedReason = reason
		}
		h.StoreErrors = s.m.StoreErrors.Load()
	}
	s.mu.Lock()
	db := s.db
	s.mu.Unlock()
	if db != nil {
		snap := db.Snapshot()
		h.DBRecords = snap.Len()
		h.DBFingerprint = snap.Fingerprint()
	}
	writeJSON(w, 200, h)
}
