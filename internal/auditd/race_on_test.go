//go:build race

package auditd

// raceEnabled reports that the race detector is on: its sync.Pool drops
// items at random, so allocation counts wobble by a handful per call.
const raceEnabled = true
