package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRecommendGolden pins `indaas recommend`'s rendered ranking, byte for
// byte, for each strategy over the k=4 fat tree's whole server pool, for an
// unsorted -nodes pool, and for a pinned node with probability ranking.
func TestRecommendGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"auto", nil},
		{"greedy", []string{"-strategy", "greedy"}},
		{"beam", []string{"-strategy", "beam"}},
		{"nodes", []string{"-nodes", "srv1_1_0,srv0_0_1,srv3_0_0,srv0_0_0"}},
		{"fixed", []string{"-replicas", "3", "-fixed", "srv0_0_0", "-prob", "0.1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-deps", filepath.Join("testdata", "fattree-k4.xml"), "-replicas", "2", "-top", "5"}, tc.extra...)
			var out bytes.Buffer
			if err := cmdRecommend(&out, args); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "recommend_"+tc.name+".golden")
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

// TestRecommendRefusesServersWithoutRecords: a -nodes or -fixed server the
// database has no records for is refused at submission, with the service's
// message, rather than accepted and then failed as a job.
func TestRecommendRefusesServersWithoutRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"nodes", []string{"-nodes", "x,y"}, `auditd: no dependency records for server "x"`},
		{"fixed", []string{"-replicas", "3", "-fixed", "srv0_0_0,ghost"}, `auditd: no dependency records for server "ghost"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := cmdRecommend(&out, append([]string{"-deps", filepath.Join("testdata", "fattree-k4.xml"), "-replicas", "2"}, tc.args...))
			if err == nil || err.Error() != tc.want {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("refused recommendation printed %q", out.String())
			}
		})
	}
}
