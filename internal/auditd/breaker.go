package auditd

import (
	"log"
	"sync"
	"time"
)

// breaker is the store-write circuit breaker behind degraded-mode serving.
// While closed, every durable write proceeds; after threshold consecutive
// failures it opens, and the daemon serves memory-only — no write attempts,
// no per-job error spam — until a half-open probe (one write allowed per
// cooldown) succeeds and restores durable mode.
type breaker struct {
	mu        sync.Mutex
	now       func() time.Time
	threshold int
	cooldown  time.Duration
	failures  int // consecutive failures
	open      bool
	retryAt   time.Time
	reason    string // last failure, shown by /healthz while degraded
	trips     int64
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 15 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &breaker{now: now, threshold: threshold, cooldown: cooldown}
}

// allow reports whether a durable write should be attempted: always while
// closed, and once per cooldown while open (the half-open probe).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.now().Before(b.retryAt) {
		return false
	}
	// Half-open: let this write probe the store. Push retryAt forward so a
	// burst of traffic sends one probe per cooldown, not one per request.
	b.retryAt = b.now().Add(b.cooldown)
	return true
}

// failure records a failed store write and reports whether this one
// tripped the breaker open.
func (b *breaker) failure(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.reason = err.Error()
	if b.open {
		// A failed half-open probe: stay open for another cooldown.
		b.retryAt = b.now().Add(b.cooldown)
		return false
	}
	if b.failures < b.threshold {
		return false
	}
	b.open = true
	b.trips++
	b.retryAt = b.now().Add(b.cooldown)
	return true
}

// success records a store write that went through and reports whether it
// closed an open breaker (durable mode restored).
func (b *breaker) success() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	if !b.open {
		return false
	}
	b.open = false
	b.reason = ""
	return true
}

// degraded reports whether the breaker is open and why.
func (b *breaker) degraded() (bool, string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open, b.reason
}

func (b *breaker) tripCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// storeFailure logs one actionable line per failed store write — what was
// being written, for which job, and the underlying error — and feeds the
// breaker, announcing the trip into degraded mode when it happens.
func (s *Server) storeFailure(what string, err error) {
	s.m.StoreErrors.Add(1)
	log.Printf("auditd: store write failed (%s): %v", what, err)
	if s.breaker.failure(err) {
		log.Printf("auditd: %d consecutive store write failures; serving degraded (memory-only), probing every %v",
			s.breaker.threshold, s.breaker.cooldown)
	}
}

// storeOK records a successful store write, announcing recovery when it
// closes an open breaker.
func (s *Server) storeOK() {
	if s.breaker.success() {
		log.Printf("auditd: store writes succeeding again; durable mode restored")
	}
}
