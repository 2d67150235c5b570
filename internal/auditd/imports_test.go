package auditd_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestServedPathImportsNoExperimentCiphers: the daemon and the CLI run P-SOP
// across a trust boundary and count held datasets in cleartext, so the
// Kissner–Song baseline's Paillier cipher and MinHash — library code for the
// paper's protocol comparisons (Fig. 8, Fig. 9, Table 2) — must stay out of
// their import graph.
func TestServedPathImportsNoExperimentCiphers(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goTool, "list", "-deps", "indaas/internal/auditd", "indaas/cmd/indaas").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "indaas/internal/crypto/paillier", "indaas/internal/minhash":
			t.Errorf("%s is in the import graph of internal/auditd or cmd/indaas", pkg)
		}
	}
}
