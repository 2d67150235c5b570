package auditd

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"

	"indaas/internal/store"
)

// The job journal makes accepted work — not just finished results —
// durable. Every submission that will actually compute is written to the
// store under job/<id> before the job can enter the queue, tombstoned when
// the job settles, and replayed by RecoverJobs at the next boot if a crash
// interrupted it.
const jobKeyPrefix = "job/"

// journalRecord is the disk envelope of one accepted job: enough to replay
// the submission verbatim. Kind is the workload kind (see executor.go): one
// vocabulary for what a job is, in the journal, on the wire and on a result.
// Requests are stored in their wire form, so a replay walks the same
// validation, normalization, delta planning, and caching as the original
// call.
type journalRecord struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request"`
}

func journalKey(id string) string { return jobKeyPrefix + id }

// journalJob persists an accepted job's {kind, request} record, reporting
// whether the job now counts as journaled. The write is skipped while
// degraded: a job accepted in memory-only mode is lost by a crash, exactly as
// it would be on a service with no store at all. Called without s.mu held.
func (s *Server) journalJob(id, kind string, req any) bool {
	blob, err := json.Marshal(req)
	if err != nil {
		return false // wire requests always marshal; never block a submission on this
	}
	if !s.breaker.allow() {
		s.m.StoreSkippedWrites.Add(1)
		return true
	}
	rec, err := json.Marshal(journalRecord{Kind: kind, Request: blob})
	if err != nil {
		s.m.StoreErrors.Add(1)
		return true
	}
	evicted, err := s.store.Put(journalKey(id), store.KindJob, rec)
	if err != nil {
		s.storeFailure("journaling job "+id, err)
	} else {
		s.storeOK()
	}
	s.dropCached(evicted, "")
	return true
}

// clearJournals tombstones the journal records of settled jobs. Failures
// are tolerated: a stale record only costs a redundant — and, with the
// result already durable, instantly cache-answered — re-submission at the
// next boot. Called without s.mu held.
func (s *Server) clearJournals(ids []string) {
	if s.store == nil || len(ids) == 0 {
		return
	}
	if !s.breaker.allow() {
		s.m.StoreSkippedWrites.Add(int64(len(ids)))
		return
	}
	for _, id := range ids {
		if err := s.store.Delete(journalKey(id)); err != nil {
			s.storeFailure("clearing journal of job "+id, err)
			return
		}
	}
	s.storeOK()
}

// journaledIDsLocked collects and claims the journaled ids among the live
// jobs; the caller tombstones them after releasing s.mu. Claiming (flipping
// journaled off) keeps the concurrent terminal paths — completion, cancel,
// expiry — from double-clearing.
func journaledIDsLocked(jobs []*job) []string {
	var ids []string
	for _, j := range jobs {
		if j.live != nil && j.live.journaled {
			j.live.journaled = false
			ids = append(ids, j.id())
		}
	}
	return ids
}

// RecoverJobs re-enqueues every journaled job an earlier process accepted
// but never settled — the kill -9 recovery path. Call it once at boot,
// after RestoreDB and before serving traffic, so a client polling a
// pre-crash job id finds it again under the same id with Recovered set.
// Jobs whose results became durable before the crash settle instantly as
// disk hits. Records that can no longer be replayed (unreadable, an unknown
// kind, a request the service now rejects as invalid) are dropped with a log
// line rather than wedging every future boot; a record the service merely
// has no room for right now (429, 503) stays on disk for the next call or the
// next boot — it is accepted work. Returns the number of jobs re-enqueued.
func (s *Server) RecoverJobs() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	recovered, deferred := 0, 0
	for _, e := range s.store.Entries() { // oldest first: submission order
		if e.Kind != store.KindJob || !strings.HasPrefix(e.Key, jobKeyPrefix) {
			continue
		}
		id := strings.TrimPrefix(e.Key, jobKeyPrefix)
		s.mu.Lock()
		known := s.lookupLocked(id) != nil
		s.mu.Unlock()
		if known {
			continue // live in this process: its record is not a crash's
		}
		k, req, err := s.readJournal(e.Key)
		seq, ok := parseJobID(id)
		if err == nil && !ok {
			err = fmt.Errorf("%q is not a job id", id)
		}
		if err == nil {
			_, err = s.submitJob(k, req, origin{recoverSeq: seq})
		}
		switch code := httpStatus(err); {
		case err == nil:
			recovered++
			s.m.JobsRecovered.Add(1)
			log.Printf("auditd: recovered job %s from the journal", id)
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			deferred++
		default:
			log.Printf("auditd: dropping journal record %s: %v", e.Key, err)
			if derr := s.store.Delete(e.Key); derr != nil {
				log.Printf("auditd: dropping journal record %s: %v", e.Key, derr)
			}
		}
	}
	if deferred > 0 {
		log.Printf("auditd: %d journaled jobs found no room in the queue; their records stay for the next recovery", deferred)
	}
	return recovered, nil
}

// readJournal loads one journal record as its kind and a filled wire request.
func (s *Server) readJournal(key string) (*jobKind, jobRequest, error) {
	blob, _, ok, err := s.store.Get(key)
	if err != nil || !ok {
		return nil, nil, fmt.Errorf("unreadable: ok=%v err=%v", ok, err)
	}
	var jr journalRecord
	if err := json.Unmarshal(blob, &jr); err != nil {
		return nil, nil, err
	}
	k := kindByName(jr.Kind)
	if k == nil {
		return nil, nil, fmt.Errorf("unknown job kind %q", jr.Kind)
	}
	req := k.newRequest()
	if err := json.Unmarshal(jr.Request, req); err != nil {
		return nil, nil, err
	}
	return k, req, nil
}

// allocSeq assigns a job sequence number: the next fresh one, or — when
// replaying the journal — the job's original one, raising the counter past
// it so the ids of recovered and new jobs never collide. Lock-free, so the
// resolve stage can journal a job under its id; an id whose submission is
// then refused is simply never used (ids have gaps).
func (s *Server) allocSeq(recoverSeq uint64) uint64 {
	if recoverSeq == 0 {
		return s.nextID.Add(1)
	}
	for cur := s.nextID.Load(); recoverSeq > cur && !s.nextID.CompareAndSwap(cur, recoverSeq); cur = s.nextID.Load() {
	}
	return recoverSeq
}

// jobID renders a job sequence number as the job's id.
func jobID(seq uint64) string { return fmt.Sprintf("job-%06d", seq) }

// parseJobID is jobID's inverse: ok is false for any string jobID does not
// render.
func parseJobID(id string) (seq uint64, ok bool) {
	digits, ok := strings.CutPrefix(id, "job-")
	if !ok || len(digits) < 6 || len(digits) > 6 && digits[0] == '0' {
		return 0, false
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	return seq, err == nil && seq > 0
}
