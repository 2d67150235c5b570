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
// qualitatively safer (an RG of size s needs s simultaneous failures). The
// vector is dense — as long as the largest size — so it is for audits this
// process computed; Rank, which also sees reports off the wire, compares the
// sparse histogram.
func (d *DeploymentAudit) SizeVector() []int {
	h := d.sizeHistogram()
	if len(h) == 0 {
		return []int{}
	}
	v := make([]int, h[len(h)-1].size)
	for _, bar := range h {
		v[bar.size-1] = bar.count
	}
	return v
}

// sizeCount is one bar of a size histogram: count RGs of that size.
type sizeCount struct{ size, count int }

// sizeHistogram is SizeVector without the zeros, ascending by size. It is
// total — a size below 1, which only a report off the wire can carry, is
// ignored — and costs O(RGs log RGs) whatever the sizes say.
func (d *DeploymentAudit) sizeHistogram() []sizeCount {
	sizes := make([]int, 0, len(d.RGs))
	for i := range d.RGs {
		if s := d.RGs[i].Size; s >= 1 {
			sizes = append(sizes, s)
		}
	}
	sort.Ints(sizes) // a ranked RG list is ascending already
	var h []sizeCount
	for _, s := range sizes {
		if n := len(h); n > 0 && h[n-1].size == s {
			h[n-1].count++
		} else {
			h = append(h, sizeCount{s, 1})
		}
	}
	return h
}

// lessSizes orders histograms as their dense vectors order
// lexicographically: at the smallest size whose counts differ, fewer wins.
func lessSizes(a, b []sizeCount) (less, differ bool) {
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].size < b[0].size:
			return false, true // a has RGs of a size b has none of
		case len(a) == 0 || b[0].size < a[0].size:
			return true, true
		case a[0].count != b[0].count:
			return a[0].count < b[0].count, true
		}
		a, b = a[1:], b[1:]
	}
	return false, false
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
	rk := ranking{audits: r.Audits, mode: mode}
	if mode != CompareByFailureProb && mode != CompareByScore {
		// Once per audit, not twice per comparison.
		rk.sizes = make([][]sizeCount, len(r.Audits))
		for i := range r.Audits {
			rk.sizes[i] = r.Audits[i].sizeHistogram()
		}
	}
	sort.Stable(rk)
}

// ranking sorts audits together with their size histograms.
type ranking struct {
	audits []DeploymentAudit
	sizes  [][]sizeCount // per audit, when the mode compares them
	mode   CompareMode
}

func (rk ranking) Len() int { return len(rk.audits) }

func (rk ranking) Swap(i, j int) {
	rk.audits[i], rk.audits[j] = rk.audits[j], rk.audits[i]
	if rk.sizes != nil {
		rk.sizes[i], rk.sizes[j] = rk.sizes[j], rk.sizes[i]
	}
}

func (rk ranking) Less(i, j int) bool {
	a, b := &rk.audits[i], &rk.audits[j]
	switch rk.mode {
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
		if less, differ := lessSizes(rk.sizes[i], rk.sizes[j]); differ {
			return less
		}
	}
	return a.Deployment < b.Deployment
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
		if _, err := fmt.Fprintf(w, "%-4d %-40s %.4f\n",
			i+1, strings.Join(e.Providers, " & "), e.Jaccard); err != nil {
			return err
		}
	}
	return nil
}
