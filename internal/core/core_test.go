package core

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"indaas/internal/topology"
)

func TestTopologyAcquirer(t *testing.T) {
	dc := topology.BensonDC()
	acq := TopologyAcquirer(dc)
	recs, err := acq.Collect([]string{"Rack29"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("Rack29 records = %d, want 2 (dual routes)", len(recs))
	}
	if recs[0].Network.Route[0] != "e29" {
		t.Errorf("route = %v", recs[0].Network.Route)
	}
}

// TestOnlyBenchImportsCore: an audit runs one way, through the daemon's
// request normalization, and record generators live in their source
// packages. This package is the service benchmark's shim; no other package
// — in its code, its tests or its external tests — may import it.
func TestOnlyBenchImportsCore(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(goTool, "list", "-f",
		`{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`, "./...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "indaas/bench", "indaas/internal/core":
			continue
		}
		for _, imp := range fields[1:] {
			if imp == "indaas/internal/core" {
				t.Errorf("%s imports indaas/internal/core", fields[0])
			}
		}
	}
}
