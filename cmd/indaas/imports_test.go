package main

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestCLIAndExamplesRunJobsThroughService: the command and the examples run
// every audit, recommendation and private audit as a job on an audit
// service, in-process or remote, so the service's rules and defaults are the
// only ones. None of them — in its code, its tests or its external tests —
// may import an engine package directly.
func TestCLIAndExamplesRunJobsThroughService(t *testing.T) {
	engines := map[string]bool{
		"indaas/internal/placement": true,
		"indaas/internal/sia":       true,
		"indaas/internal/pia":       true,
		"indaas/internal/psi":       true,
		"indaas/internal/riskgroup": true,
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goTool, "list", "-f",
		`{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`,
		"./cmd/indaas", "./examples/...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if engines[imp] {
				t.Errorf("%s imports %s", fields[0], imp)
			}
		}
	}
}
