package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// auditArgs audits three placements on a k=4 fat tree written by
// `depgen -kind fattree -k 4 -servers 0`: one ToR, one pod, two pods.
var auditArgs = []string{
	"-deps", filepath.Join("testdata", "fattree-k4.xml"),
	"-deploy", "samerack=srv0_0_0,srv0_0_1",
	"-deploy", "samepod=srv0_0_0,srv0_1_0",
	"-deploy", "crosspod=srv0_0_0,srv1_0_0",
	"-max-rgs", "4",
}

// TestAuditGolden pins `indaas audit`'s rendered report, byte for byte, for
// each algorithm and ranking the command offers.
func TestAuditGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"minimal-rg", nil},
		{"failure-sampling", []string{"-algorithm", "failure-sampling", "-rounds", "1000"}},
		{"prob", []string{"-prob", "0.1"}},
		{"kinds", []string{"-kinds", "network"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := cmdAudit(&out, append(append([]string(nil), auditArgs...), tc.extra...)); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "audit_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/indaas -update`)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output drifted from %s.\ngot:\n%s", golden, out.Bytes())
			}
		})
	}
}

// TestAuditRefusesWhatTheServiceRefuses: the command has no option rules of
// its own, so it refuses exactly what the audit service refuses, with the
// service's message.
func TestAuditRefusesWhatTheServiceRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"repeated server", []string{"-deploy", "a=srv0_0_0,srv0_0_0"}, `auditd: deployment "a" lists server "srv0_0_0" twice`},
		{"negative probability", []string{"-deploy", "a=srv0_0_0,srv1_0_0", "-prob", "-0.5"}, "auditd: failure_prob -0.5 out of [0,1]"},
		{"negative workers", []string{"-deploy", "a=srv0_0_0,srv1_0_0", "-workers", "-3"}, "auditd: negative option"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := cmdAudit(&out, append([]string{"-deps", filepath.Join("testdata", "fattree-k4.xml")}, tc.args...))
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("refused audit printed %q", out.String())
			}
		})
	}
}
