//go:build !race

package riskgroup

const raceEnabled = false
