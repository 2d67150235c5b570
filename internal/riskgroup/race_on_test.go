//go:build race

package riskgroup

// raceEnabled reports that the race detector is on, which slows the
// per-round reference sampler about tenfold.
const raceEnabled = true
