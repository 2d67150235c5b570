package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"indaas/internal/swpkg"
)

// table2Args writes the four clouds of the paper's Table 2 (each one's
// key-value store package closure) to dir and returns the -provider flags
// naming them Cloud1..Cloud4.
func table2Args(t *testing.T, dir string) []string {
	t.Helper()
	u, roots := swpkg.KeyValueStoreUniverse()
	var args []string
	for i, root := range roots {
		ids, err := u.ClosureIDs(root)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("cloud%d.txt", i+1))
		if err := os.WriteFile(path, []byte("pkg:"+strings.Join(ids, "\npkg:")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-provider", fmt.Sprintf("Cloud%d=%s", i+1, path))
	}
	return args
}

// TestPrivateAuditLocal runs Table 2's two- and three-way deployments through
// `indaas private-audit` without -server and checks the rank, deployment and
// Jaccard columns. The elapsed column and the throughput line vary from run
// to run and are not compared.
func TestPrivateAuditLocal(t *testing.T) {
	args := table2Args(t, t.TempDir())
	for _, d := range []string{
		"Cloud1,Cloud2", "Cloud1,Cloud3", "Cloud1,Cloud4", "Cloud2,Cloud3", "Cloud2,Cloud4", "Cloud3,Cloud4",
		"Cloud1,Cloud2,Cloud3", "Cloud1,Cloud2,Cloud4", "Cloud1,Cloud3,Cloud4", "Cloud2,Cloud3,Cloud4",
	} {
		args = append(args, "-deploy", d)
	}
	var out bytes.Buffer
	if err := cmdPrivateAudit(&out, args); err != nil {
		t.Fatal(err)
	}
	// The measured similarities; each is within ±0.0035 of the paper's
	// Table 2 value, and both rankings are the paper's.
	want := []string{
		"#1 Cloud2 + Cloud3 + Cloud4 0.1120",
		"#2 Cloud1 + Cloud2 + Cloud4 0.1234",
		"#3 Cloud1 + Cloud3 + Cloud4 0.1380",
		"#4 Cloud2 + Cloud4 0.1448",
		"#5 Cloud1 + Cloud2 + Cloud3 0.1502",
		"#6 Cloud2 + Cloud3 0.1580",
		"#7 Cloud1 + Cloud4 0.2054",
		"#8 Cloud1 + Cloud3 0.2944",
		"#9 Cloud3 + Cloud4 0.3514",
		"#10 Cloud1 + Cloud2 0.5056",
	}
	columns := regexp.MustCompile(`\s{2,}`)
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			cols := columns.Split(line, -1)
			got = append(got, strings.Join(cols[:3], " "))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("rank, deployment, jaccard:\n%s\nwant:\n%s\nfull output:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"), out.String())
	}
}

// TestPrivateAuditLocalTimeout: without -server, -timeout caps the job as it
// does a served one. Twelve providers of 20,000 components make 66 pairs,
// which take far longer to count than the 1 ms cap.
func TestPrivateAuditLocalTimeout(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-timeout", "1ms"}
	for p := 0; p < 12; p++ {
		var b strings.Builder
		for c := 0; c < 20000; c++ {
			fmt.Fprintf(&b, "pkg:%d\n", c*(p+1))
		}
		path := filepath.Join(dir, fmt.Sprintf("p%d.txt", p))
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-provider", fmt.Sprintf("p%d=%s", p, path))
	}
	var out bytes.Buffer
	err := cmdPrivateAudit(&out, args)
	if err == nil || !strings.Contains(err.Error(), "ended canceled: timed out after 1ms") {
		t.Fatalf("err = %v, want the job canceled by its 1ms timeout", err)
	}
	if out.Len() != 0 {
		t.Errorf("timed-out audit printed %q", out.String())
	}
}

// TestPrivateAuditRefusesEmptyProviderFile: a -provider file with no
// components — empty, or blanks and comments only — is refused and named,
// rather than sent as a bare name the service would resolve to a dataset it
// holds under that name.
func TestPrivateAuditRefusesEmptyProviderFile(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.txt")
	if err := os.WriteFile(full, []byte("pkg:a\npkg:b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"empty": "", "comments": "# nothing here\n\n   \n# still nothing\n"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".txt")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mode := range [][]string{nil, {"-server", "http://127.0.0.1:1"}} {
				var out bytes.Buffer
				err := cmdPrivateAudit(&out, append(mode, "-provider", "a="+full, "-provider", "b="+path))
				want := fmt.Sprintf("private-audit: -provider b=%s: the file lists no components", path)
				if err == nil || err.Error() != want {
					t.Errorf("%v: err = %v, want %q", mode, err, want)
				}
				if out.Len() != 0 {
					t.Errorf("%v: refused audit printed %q", mode, out.String())
				}
			}
		})
	}
}
