package auditd

// The watch subsystem keeps audits continuously fresh against a streaming
// DepDB: a client subscribes with an ordinary audit request, and every
// ingest that touches one of the request's subjects triggers a re-audit
// whose report is pushed to the subscriber over SSE (GET /v1/watch).
//
// The design leans entirely on content addressing (delta.go): a refresh is a
// plain re-Submit of the stored request, whose address commits to the
// records its deployments read — so per refresh the result tiers answer a
// state seen before, the audits memo splices the deployments whose records
// did not move, or the request recomputes. Between refreshes, dirt only
// accumulates (internal/watch): a thousand ingests while one re-audit runs
// cost exactly one follow-up re-audit, never a backlog.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"indaas/internal/report"
	"indaas/internal/sia"
	"indaas/internal/watch"
)

// watchPollInterval bounds one refresher wait on a running re-audit, so a
// closed subscription or a shutdown is observed promptly; watchRetryDelay
// is the pause before retrying a 429-rejected refresh. Variables so tests
// can shrink them.
var (
	watchPollInterval = time.Second
	watchRetryDelay   = 100 * time.Millisecond
)

// watchHeartbeat is the SSE comment-frame interval keeping idle streams
// alive through proxies. A variable so tests can shrink it.
var watchHeartbeat = 15 * time.Second

// WatchEvent is one frame of a watch stream: the re-audit job's status
// (which says how it was answered — cached, delta_hit, dirty_subjects) and,
// when the job succeeded, the fresh report.
type WatchEvent struct {
	// Seq numbers the subscription's events from 1.
	Seq uint64 `json:"seq"`
	// Trigger lists the ingested subjects that caused this refresh; empty
	// for the subscription's initial report.
	Trigger []string `json:"trigger,omitempty"`
	// Job is the re-audit's terminal status: Cached when a result tier
	// already held the refreshed address, DeltaHit/DirtySubjects when the
	// refresh spliced held deployment audits, neither when it recomputed.
	Job JobStatus `json:"job"`
	// Fingerprint is the server database's canonical fingerprint at
	// delivery time.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Report is the fresh audit report (nil if the re-audit failed).
	Report *report.Report `json:"report,omitempty"`
	// Error carries the failure when the re-audit did not complete.
	Error string `json:"error,omitempty"`
}

// Subscription is a live watch registration. Consume Events — every element
// is a *WatchEvent — and Close when done. The channel closes when the
// subscription ends: Close, server shutdown, or slow-consumer eviction
// (Evicted distinguishes the last).
type Subscription struct {
	sub *watch.Sub
}

// Events delivers *WatchEvent payloads in order.
func (w *Subscription) Events() <-chan watch.Event { return w.sub.Events() }

// Close ends the subscription (idempotent).
func (w *Subscription) Close() { w.sub.Close() }

// Evicted reports whether the subscription was removed as a slow consumer.
func (w *Subscription) Evicted() bool { return w.sub.Evicted() }

// Watch subscribes to an audit request: the request is audited once
// immediately, then re-audited after every ingest touching its deployments'
// servers (of a kind some deployment wants), with each report streamed as a
// WatchEvent. buffer bounds the subscriber's event queue; <= 0 (or anything
// above it) means Config.WatchBuffer. The request must audit the server
// database — inline records never change, so watching them is a 400 — and
// the server must already have a database.
func (s *Server) Watch(req *SubmitRequest, buffer int) (*Subscription, error) {
	if len(req.Records) > 0 {
		return nil, &statusErr{code: 400, err: errors.New("watch audits the server database; a request with inline records can never change")}
	}
	n, _, err := req.normalize()
	if err != nil {
		return nil, &statusErr{code: 400, err: err}
	}
	if _, err := s.resolveDB(nil); err != nil {
		return nil, err // no server database yet: ingest first, then watch
	}
	if buffer <= 0 || buffer > s.cfg.WatchBuffer {
		buffer = s.cfg.WatchBuffer
	}

	// The closed check and the refresher accounting share one critical
	// section so Shutdown's watchWG.Wait can never miss a starting loop.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &statusErr{code: 503, err: errors.New("service is shutting down")}
	}
	s.watchWG.Add(1)
	s.mu.Unlock()

	sub, err := s.watchHub.Subscribe(watchInterest(n.specs()), buffer)
	if err != nil {
		s.watchWG.Done()
		return nil, &statusErr{code: 503, err: err}
	}
	reqCopy := *req // the refresher re-submits it for the subscription's life
	sub.Kick()      // the initial report flows through the same refresh path
	go s.refreshLoop(sub, &reqCopy)
	return &Subscription{sub: sub}, nil
}

// watchInterest derives a subscription's interest from its graph specs: the
// union of the deployments' servers, and the union of the kinds any spec
// wants (any spec wanting all kinds widens the mask to all). This mirrors
// sia.DirtyDeployments — a touch that cannot dirty any spec never wakes the
// refresher; one that might is settled precisely by the refreshed address.
func watchInterest(specs []sia.GraphSpec) watch.Interest {
	var in watch.Interest
	seen := make(map[string]struct{})
	allKinds := false
	for i := range specs {
		for _, srv := range specs[i].Servers {
			if _, dup := seen[srv]; !dup {
				seen[srv] = struct{}{}
				in.Subjects = append(in.Subjects, srv)
			}
		}
		if len(specs[i].Kinds) == 0 {
			allKinds = true
			continue
		}
		for _, k := range specs[i].Kinds {
			in.Kinds |= watch.KindMask(int(k))
		}
	}
	if allKinds {
		in.Kinds = 0
	}
	return in
}

// refreshLoop is a subscription's refresher: it sleeps until dirt
// accumulates, re-audits the stored request through the ordinary submit
// path (result tiers and splicing all apply), and streams the
// outcome. It exits when the subscription ends — Close,
// eviction, shutdown — or on a fatal submit error.
func (s *Server) refreshLoop(sub *watch.Sub, req *SubmitRequest) {
	defer s.watchWG.Done()
	defer sub.Close()
	var seq uint64
	for {
		select {
		case <-sub.Done():
			return
		case <-sub.Signal():
		}
		trigger, kicked, since := sub.TakeDirty()
		if len(trigger) == 0 && !kicked {
			continue // the signal raced an earlier drain; nothing owed
		}
		ev, fatal := s.refreshOnce(sub, req, trigger)
		if ev != nil {
			seq++
			ev.Seq = seq
			if !sub.Send(ev) {
				return // evicted: the consumer fell a full buffer behind
			}
			// The owed notification is queued: close the ingest→notify
			// window opened by the oldest drained dirty mark, and stamp the
			// notify span (job completion → event queued, i.e. the re-audit
			// poll plus report rendering) onto the job's trace.
			if !since.IsZero() {
				s.m.IngestNotify.Observe(time.Since(since))
			}
			if ev.Job.FinishedAt != nil {
				s.appendJobSpan(ev.Job.ID, "notify", *ev.Job.FinishedAt, time.Since(*ev.Job.FinishedAt))
			}
		}
		if fatal {
			return
		}
	}
}

// refreshOnce runs one re-audit of the subscription's request and renders
// the event to stream (nil when the refresh was requeued instead). fatal
// reports that the loop should end: the subscription closed mid-wait, or
// the service refused the submission for a non-transient reason (shutdown,
// or a request the database outgrew).
func (s *Server) refreshOnce(sub *watch.Sub, req *SubmitRequest, trigger []string) (ev *WatchEvent, fatal bool) {
	st, err := s.submitJob(auditKind, req, origin{refresh: true})
	if err != nil {
		if httpStatus(err) == 429 {
			// Queue full: requeue the refresh and retry after a beat. Kick
			// folds the pending dirt into the next round.
			sub.Kick()
			select {
			case <-sub.Done():
				return nil, true
			case <-time.After(watchRetryDelay):
			}
			return nil, false
		}
		return &WatchEvent{Trigger: trigger, Error: err.Error()}, true
	}
	s.m.WatchReaudits.Add(1)
	// Wait the job out in short beats, re-checking the subscription so a
	// closed subscriber or a shutdown never strands this goroutine behind a
	// long computation.
	for st.State != StateDone && st.State != StateFailed && st.State != StateCanceled {
		select {
		case <-sub.Done():
			return nil, true
		default:
		}
		st, err = s.WaitDone(context.Background(), st.ID, watchPollInterval)
		if err != nil {
			return &WatchEvent{Trigger: trigger, Error: err.Error()}, true
		}
	}
	ev = &WatchEvent{Trigger: trigger, Job: st, Fingerprint: s.dbFingerprint()}
	switch {
	case st.State == StateDone:
		if rep, err := s.Report(st.ID); err == nil {
			ev.Report = rep
		} else {
			ev.Error = err.Error()
		}
	case st.Error != "":
		ev.Error = st.Error
	default:
		ev.Error = "re-audit " + st.State
	}
	return ev, false
}

// dbFingerprint snapshots the served database's canonical fingerprint
// ("" before the first ingest of a database-less server).
func (s *Server) dbFingerprint() string {
	s.mu.Lock()
	db := s.db
	s.mu.Unlock()
	if db == nil {
		return ""
	}
	return db.Snapshot().Fingerprint()
}

// handleWatch serves GET/POST /v1/watch as a Server-Sent-Events stream. The
// audit request rides in the POST body, or — for plain curl/EventSource
// GETs — JSON-encoded in the spec query parameter; ?buffer=N lowers the
// event-queue bound below Config.WatchBuffer. Frames:
//
//	event: report   data: WatchEvent JSON       (one per re-audit)
//	event: closed   data: {"reason": ...}       (terminal)
//	: keep-alive                                (comment heartbeat)
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if r.Method == http.MethodPost {
		if !decodeJSON(w, r, &req) {
			return
		}
	} else {
		spec := r.URL.Query().Get("spec")
		if spec == "" {
			writeJSON(w, 400, errorBody{Error: "missing spec query parameter (a /v1/audits request body)"})
			return
		}
		dec := json.NewDecoder(strings.NewReader(spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, 400, errorBody{Error: "bad spec: " + err.Error()})
			return
		}
	}
	buffer := 0
	if v := r.URL.Query().Get("buffer"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, 400, errorBody{Error: "bad buffer"})
			return
		}
		buffer = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, 500, errorBody{Error: "streaming is unsupported on this connection"})
		return
	}
	sub, err := s.Watch(&req, buffer)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(200)
	flusher.Flush()

	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return // client hung up
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
		case raw, ok := <-sub.Events():
			if !ok {
				reason := "service shutting down"
				if sub.Evicted() {
					reason = "slow consumer: event queue overflowed"
				}
				fmt.Fprintf(w, "event: closed\ndata: {\"reason\":%q}\n\n", reason)
				flusher.Flush()
				return
			}
			ev, ok := raw.(*WatchEvent)
			if !ok {
				continue
			}
			blob, err := json.Marshal(ev) // single line: JSON escapes newlines
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: report\nid: %d\ndata: %s\n\n", ev.Seq, blob)
			flusher.Flush()
		}
	}
}
