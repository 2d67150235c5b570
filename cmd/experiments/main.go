// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) and prints measured-vs-paper comparisons.
//
// Usage:
//
//	experiments [-run all|table2|table3|fig6a|fig6b|fig6c|fig7|fig8|fig9] [-full] [-verify]
//
// By default every experiment runs at laptop scale; -full approaches the
// paper's parameters (hours of runtime for fig7/fig8/fig9). -verify exits
// non-zero if any of the paper's §6 claims an experiment checks fails (the
// paper-section map in docs/ARCHITECTURE.md places each harness).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"indaas/internal/exp"
)

type experiment struct {
	name string
	run  func(full bool) (renderable, error)
}

type renderable interface {
	Render() *exp.Table
	Verify() error
}

func main() {
	runWhat := flag.String("run", "all", "experiment to run: all, table2, table3, fig6a, fig6b, fig6c, fig7, fig8, fig9")
	full := flag.Bool("full", false, "run at near-paper scale (slow)")
	verify := flag.Bool("verify", true, "check acceptance criteria and exit non-zero on mismatch")
	flag.Parse()

	experiments := []experiment{
		{"table3", func(bool) (renderable, error) { return exp.RunTable3() }},
		{"fig6a", func(full bool) (renderable, error) {
			cfg := exp.Fig6aConfig{}
			if full {
				cfg.Rounds = 1_000_000 // the paper's round count
			}
			return exp.RunFig6a(cfg)
		}},
		{"fig6b", func(bool) (renderable, error) { return exp.RunFig6b() }},
		{"table2", func(bool) (renderable, error) {
			return exp.RunTable2(exp.Table2Config{Private: true})
		}},
		{"fig7", func(full bool) (renderable, error) {
			cfg := exp.Fig7Config{}
			if full {
				cfg = exp.Fig7FullConfig()
			}
			return exp.RunFig7(cfg)
		}},
		{"fig8", func(full bool) (renderable, error) {
			cfg := exp.Fig8Config{}
			if full {
				cfg = exp.Fig8FullConfig()
			}
			return exp.RunFig8(cfg)
		}},
		{"fig9", func(full bool) (renderable, error) {
			cfg := exp.Fig9Config{}
			if full {
				cfg = exp.Fig9FullConfig()
			}
			return exp.RunFig9(cfg)
		}},
	}

	want := strings.ToLower(*runWhat)
	if want == "fig6c" {
		want = "table2" // Fig. 6c and Table 2 are the same case study
	}
	ran := 0
	failed := 0
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		ran++
		fmt.Printf("running %s%s...\n", e.name, map[bool]string{true: " (full scale)"}[*full])
		res, err := e.run(*full)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed++
			continue
		}
		if err := res.Render().Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: rendering: %v\n", e.name, err)
			failed++
			continue
		}
		if *verify {
			if err := res.Verify(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: VERIFICATION FAILED: %v\n", e.name, err)
				failed++
			} else {
				fmt.Printf("%s: verified against the paper\n", e.name)
			}
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *runWhat)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
