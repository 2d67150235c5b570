//go:build race

package report

// raceEnabled reports that the race detector is on: its instrumentation
// moves some of a decode's values to the heap, so byte counts are not the
// optimized build's.
const raceEnabled = true
