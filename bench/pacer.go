package main

import (
	"syscall"
	"time"
)

// clock is the time source the open-loop scheduler runs on; tests swap in a
// fake so due times and lateness are checked without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks in nanosleep(2) rather than on a Go timer: Go timers on
// Linux fire up to a millisecond late, which at ~80 batches a second would
// add a visible share to a push latency timed from its due time, while the
// kernel's high-resolution timer wakes the thread within tens of
// microseconds. Busy-waiting would be as precise but starves the runtime's
// network poller whenever every P is busy, delaying the very responses the
// harness is timing.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// pacer releases batches on a fixed records/second schedule regardless of
// how fast earlier batches were acknowledged (an open loop): batch n is due
// once the records before it, divided by the rate, have elapsed. Latency is
// timed from the due time, so a stall charges every batch it delays.
type pacer struct {
	clk   clock
	start time.Time
	rate  float64 // records per second
	sent  int64   // records released so far
}

func newPacer(clk clock, rate float64) *pacer {
	return &pacer{clk: clk, start: clk.Now(), rate: rate}
}

// next blocks until the next batch of n records is due and returns its due
// time and how late the generator itself released it: the time past the
// later of the due time and the moment next was called. A caller that comes
// back after the due time (its previous request was slow) is backlog, which
// latency timed from the due time already charges; lateness is only what
// the generator adds by oversleeping or starving for CPU.
func (p *pacer) next(n int) (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(float64(p.sent) / p.rate * float64(time.Second)))
	p.sent += int64(n)
	ready := p.clk.Now()
	if d := due.Sub(ready); d > 0 {
		p.clk.Sleep(d)
		ready = due
	}
	return due, p.clk.Now().Sub(ready)
}
