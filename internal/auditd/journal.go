package auditd

import (
	"encoding/json"
	"fmt"
	"log"
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

// journalFor builds the journal payload for a submission, or nil — meaning
// "do not journal" — on a memory-only service.
func (s *Server) journalFor(kind string, req any) *journalRecord {
	if s.store == nil {
		return nil
	}
	blob, err := json.Marshal(req)
	if err != nil {
		// Wire requests always marshal; never block a submission on this.
		return nil
	}
	return &journalRecord{Kind: kind, Request: blob}
}

// persistJob journals an accepted job. Skipped while degraded: a job
// accepted in memory-only mode is lost by a crash, exactly as it would be
// on a service with no store at all. Called without s.mu held.
func (s *Server) persistJob(id string, jr *journalRecord) {
	if s.store == nil || jr == nil {
		return
	}
	if !s.breaker.allow() {
		s.m.storeSkipped.Add(1)
		return
	}
	blob, err := json.Marshal(jr)
	if err != nil {
		s.m.storeErrors.Add(1)
		return
	}
	evicted, err := s.store.Put(journalKey(id), store.KindJob, blob)
	if err != nil {
		s.storeFailure("journaling job "+id, err)
	} else {
		s.storeOK()
	}
	if len(evicted) > 0 {
		s.mu.Lock()
		s.dropCachedLocked(evicted, "")
		s.mu.Unlock()
	}
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
		s.m.storeSkipped.Add(int64(len(ids)))
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

// journaledIDsLocked collects and claims the journaled ids among jobs;
// the caller tombstones them after releasing s.mu. Claiming (flipping
// j.journaled off) keeps the concurrent terminal paths — completion,
// cancel, expiry — from double-clearing.
func journaledIDsLocked(jobs []*job) []string {
	var ids []string
	for _, j := range jobs {
		if j.journaled {
			j.journaled = false
			ids = append(ids, j.id)
		}
	}
	return ids
}

// RecoverJobs re-enqueues every journaled job an earlier process accepted
// but never settled — the kill -9 recovery path. Call it once at boot,
// after RestoreDB and before serving traffic, so a client polling a
// pre-crash job id finds it again under the same id with Recovered set.
// Jobs whose results became durable before the crash settle instantly as
// disk hits. Records that can no longer be replayed are dropped (with a
// log line) rather than wedging every future boot. Returns the number of
// jobs re-enqueued.
func (s *Server) RecoverJobs() (int, error) {
	if s.store == nil {
		return 0, nil
	}
	recovered := 0
	for _, e := range s.store.Entries() { // oldest first: submission order
		if e.Kind != store.KindJob || !strings.HasPrefix(e.Key, jobKeyPrefix) {
			continue
		}
		id := strings.TrimPrefix(e.Key, jobKeyPrefix)
		blob, _, ok, err := s.store.Get(e.Key)
		if err != nil || !ok {
			s.dropJournal(e.Key, fmt.Errorf("unreadable: ok=%v err=%v", ok, err))
			continue
		}
		var jr journalRecord
		if err := json.Unmarshal(blob, &jr); err != nil {
			s.dropJournal(e.Key, err)
			continue
		}
		switch jr.Kind {
		case KindAudit:
			var req SubmitRequest
			if err := json.Unmarshal(jr.Request, &req); err != nil {
				s.dropJournal(e.Key, err)
				continue
			}
			if _, err := s.submit(&req, id, true); err != nil {
				s.dropJournal(e.Key, err)
				continue
			}
		case KindRecommend:
			var req RecommendRequest
			if err := json.Unmarshal(jr.Request, &req); err != nil {
				s.dropJournal(e.Key, err)
				continue
			}
			if _, err := s.recommend(&req, id); err != nil {
				s.dropJournal(e.Key, err)
				continue
			}
		case KindPrivateAudit:
			var req PrivateAuditRequest
			if err := json.Unmarshal(jr.Request, &req); err != nil {
				s.dropJournal(e.Key, err)
				continue
			}
			if _, err := s.privateAudit(&req, id); err != nil {
				s.dropJournal(e.Key, err)
				continue
			}
		default:
			s.dropJournal(e.Key, fmt.Errorf("unknown job kind %q", jr.Kind))
			continue
		}
		recovered++
		s.m.jobsRecovered.Add(1)
		log.Printf("auditd: recovered job %s from the journal", id)
	}
	return recovered, nil
}

// dropJournal deletes a journal record that cannot be replayed, logging why.
func (s *Server) dropJournal(key string, err error) {
	log.Printf("auditd: dropping journal record %s: %v", key, err)
	if derr := s.store.Delete(key); derr != nil {
		log.Printf("auditd: dropping journal record %s: %v", key, derr)
	}
}

// allocIDLocked assigns a job id: the next fresh one, or — when replaying
// the journal — the job's original id, bumping the counter past it so the
// ids of recovered and new jobs never collide.
func (s *Server) allocIDLocked(recoverID string) string {
	if recoverID != "" {
		if n, err := strconv.ParseUint(strings.TrimPrefix(recoverID, "job-"), 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
		return recoverID
	}
	s.nextID++
	return fmt.Sprintf("job-%06d", s.nextID)
}
