// Package report defines INDaaS auditing reports (§4.1.4, §4.2.5): ranked
// risk groups per deployment, independence scores, deployment rankings, and
// text rendering for the auditing client.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// RGEntry is one ranked risk group in a deployment audit.
type RGEntry struct {
	Components []string // sorted component labels
	Size       int
	Prob       float64 // NaN when unweighted
	Importance float64 // I_C = Pr(C)/Pr(T); NaN when unweighted
}

// DeploymentAudit is the audit outcome for one redundancy deployment.
type DeploymentAudit struct {
	// Deployment names the audited configuration, e.g. "Rack5+Rack29".
	Deployment string
	// Sources are the redundant data sources of the deployment.
	Sources []string
	// Expected is the expected minimum RG size (the number of source
	// failures that should be required for an outage).
	Expected int
	// RGs is the ranking list of risk groups (§4.1.3 order).
	RGs []RGEntry
	// Unexpected counts RGs smaller than Expected.
	Unexpected int
	// Score is the paper's §4.1.4 independence score over the top-n RGs.
	Score float64
	// ScoreTopN records the n used for Score.
	ScoreTopN int
	// FailureProb is Pr(top event); NaN when unweighted.
	FailureProb float64
	// Algorithm and Elapsed record how the audit ran.
	Algorithm string
	Elapsed   time.Duration
	// Truncated indicates the RG list was cut for reporting.
	Truncated bool
}

// SizeVector returns how many RGs the audit has of each size 1..max. Used
// to compare deployments at the size level of detail: fewer small RGs is
// qualitatively safer (an RG of size s needs s simultaneous failures).
func (d *DeploymentAudit) SizeVector() []int {
	maxSize := 0
	for _, rg := range d.RGs {
		if rg.Size > maxSize {
			maxSize = rg.Size
		}
	}
	v := make([]int, maxSize)
	for _, rg := range d.RGs {
		v[rg.Size-1]++
	}
	return v
}

// Report is a full auditing report over alternative deployments, ranked
// most-independent first. Its JSON form is stable and defined by the codec
// in json.go: unknown probabilities are omitted rather than encoded as NaN,
// which encoding/json rejects.
type Report struct {
	Title  string
	Audits []DeploymentAudit
}

// CompareMode selects how deployments are ranked in the report.
type CompareMode int

const (
	// CompareBySizeVector orders deployments by (count of size-1 RGs,
	// count of size-2 RGs, …) ascending lexicographically — the qualitative
	// surrogate for failure probability when no weights are available.
	// Deterministic tie-break: deployment name.
	CompareBySizeVector CompareMode = iota
	// CompareByFailureProb orders deployments by Pr(top event) ascending.
	CompareByFailureProb
	// CompareByScore orders by the §4.1.4 independence score, descending
	// (larger top-n RG sizes / importances mean each failure mode needs
	// more simultaneous failures).
	CompareByScore
)

// Rank sorts the report's audits per the mode.
func (r *Report) Rank(mode CompareMode) {
	sort.SliceStable(r.Audits, func(i, j int) bool {
		a, b := &r.Audits[i], &r.Audits[j]
		switch mode {
		case CompareByFailureProb:
			ap, bp := a.FailureProb, b.FailureProb
			switch {
			case math.IsNaN(ap) && math.IsNaN(bp):
			case math.IsNaN(ap):
				return false
			case math.IsNaN(bp):
				return true
			case ap != bp:
				return ap < bp
			}
		case CompareByScore:
			if a.Score != b.Score {
				return a.Score > b.Score
			}
		default:
			av, bv := a.SizeVector(), b.SizeVector()
			for k := 0; k < len(av) || k < len(bv); k++ {
				var x, y int
				if k < len(av) {
					x = av[k]
				}
				if k < len(bv) {
					y = bv[k]
				}
				if x != y {
					return x < y
				}
			}
		}
		return a.Deployment < b.Deployment
	})
}

// Best returns the top-ranked audit; Rank must have been called.
func (r *Report) Best() (*DeploymentAudit, error) {
	if len(r.Audits) == 0 {
		return nil, fmt.Errorf("report: empty report")
	}
	return &r.Audits[0], nil
}

// Render writes a human-readable report. maxRGs caps the RGs printed per
// deployment (0 = 10).
func (r *Report) Render(w io.Writer, maxRGs int) error {
	if maxRGs <= 0 {
		maxRGs = 10
	}
	if _, err := fmt.Fprintf(w, "=== INDaaS auditing report: %s ===\n", r.Title); err != nil {
		return err
	}
	for rank, a := range r.Audits {
		head := fmt.Sprintf("#%d %s", rank+1, a.Deployment)
		if !math.IsNaN(a.FailureProb) {
			head += fmt.Sprintf("  Pr(outage)=%.6f", a.FailureProb)
		}
		head += fmt.Sprintf("  score=%.4f  unexpected-RGs=%d", a.Score, a.Unexpected)
		if _, err := fmt.Fprintln(w, head); err != nil {
			return err
		}
		for i, rg := range a.RGs {
			if i >= maxRGs {
				if _, err := fmt.Fprintf(w, "    … %d more RGs\n", len(a.RGs)-maxRGs); err != nil {
					return err
				}
				break
			}
			line := fmt.Sprintf("    RG%-3d size=%d {%s}", i+1, rg.Size, strings.Join(rg.Components, ", "))
			if !math.IsNaN(rg.Importance) {
				line += fmt.Sprintf("  importance=%.4f", rg.Importance)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// PIAEntry is one privately-audited deployment (§4.2.5).
type PIAEntry struct {
	Providers []string      `json:"providers"`
	Jaccard   float64       `json:"jaccard"`
	Estimated bool          `json:"estimated,omitempty"` // true when MinHash-estimated rather than exact
	BytesSent int64         `json:"bytes_sent,omitempty"`
	Elapsed   time.Duration `json:"elapsed_ns,omitempty"`
}

// PIAReport ranks redundancy deployments by Jaccard similarity: lower
// similarity means fewer shared components, i.e. more independence.
type PIAReport struct {
	Title   string     `json:"title"`
	Entries []PIAEntry `json:"entries"`
}

// Rank sorts entries ascending by Jaccard (most independent first),
// tie-breaking on the provider list.
func (r *PIAReport) Rank() {
	sort.SliceStable(r.Entries, func(i, j int) bool {
		if r.Entries[i].Jaccard != r.Entries[j].Jaccard {
			return r.Entries[i].Jaccard < r.Entries[j].Jaccard
		}
		return strings.Join(r.Entries[i].Providers, "+") < strings.Join(r.Entries[j].Providers, "+")
	})
}

// Render writes the PIA ranking table (the shape of the paper's Table 2).
func (r *PIAReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== INDaaS private auditing report: %s ===\n", r.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-4s %-40s %-8s\n", "Rank", "Redundancy Deployment", "Jaccard"); err != nil {
		return err
	}
	for i, e := range r.Entries {
		tag := ""
		if e.Estimated {
			tag = " (MinHash)"
		}
		if _, err := fmt.Fprintf(w, "%-4d %-40s %.4f%s\n",
			i+1, strings.Join(e.Providers, " & "), e.Jaccard, tag); err != nil {
			return err
		}
	}
	return nil
}
