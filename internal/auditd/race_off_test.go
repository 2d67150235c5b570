//go:build !race

package auditd

const raceEnabled = false
