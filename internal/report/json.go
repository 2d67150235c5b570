// Stable JSON encoding for audit reports.
//
// encoding/json refuses NaN outright, and unweighted audits legitimately
// carry NaN in RGEntry.Prob/Importance and DeploymentAudit.Score/FailureProb
// ("no probability known"). The codec encodes unknown probabilities by
// omission and decodes omission (or null) back to NaN, so a report
// round-trips bit-stable through the HTTP API, the store and the journal.
// Elapsed times are pinned to integer nanoseconds under "elapsed_ns".
//
// It hangs off Report alone and goes through flat wire structs, so a whole
// report is one encoding/json pass each way: marshalers on the nested types
// would cost a json.Marshal call per risk group and a scan-validate-decode
// triple per nesting level. A DeploymentAudit or RGEntry therefore has no
// JSON form of its own — wrap it in a Report.
package report

import (
	"encoding/json"
	"io"
	"math"
	"time"
)

type reportWire struct {
	Title  string      `json:"title"`
	Audits []auditWire `json:"audits"`
}

type auditWire struct {
	Deployment  string   `json:"deployment"`
	Sources     []string `json:"sources"`
	Expected    int      `json:"expected"`
	RGs         []rgWire `json:"rgs"`
	Unexpected  int      `json:"unexpected"`
	Score       *float64 `json:"score,omitempty"`
	ScoreTopN   int      `json:"score_top_n"`
	FailureProb *float64 `json:"failure_prob,omitempty"`
	Algorithm   string   `json:"algorithm"`
	ElapsedNS   int64    `json:"elapsed_ns"`
	Truncated   bool     `json:"truncated,omitempty"`
}

type rgWire struct {
	Components []string `json:"components"`
	Size       int      `json:"size"`
	Prob       *float64 `json:"prob,omitempty"`
	Importance *float64 `json:"importance,omitempty"`
}

// nanOmit maps NaN to nil so "unknown" serializes as an omitted field; the
// wire struct borrows the pointer for one Marshal.
func nanOmit(f *float64) *float64 {
	if math.IsNaN(*f) {
		return nil
	}
	return f
}

// orNaN maps a missing/null field back to NaN.
func orNaN(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

// toWire is the audit's wire form. Nil and empty slices stay distinct (null
// vs []).
func (d *DeploymentAudit) toWire() auditWire {
	w := auditWire{
		Deployment:  d.Deployment,
		Sources:     d.Sources,
		Expected:    d.Expected,
		Unexpected:  d.Unexpected,
		Score:       nanOmit(&d.Score),
		ScoreTopN:   d.ScoreTopN,
		FailureProb: nanOmit(&d.FailureProb),
		Algorithm:   d.Algorithm,
		ElapsedNS:   d.Elapsed.Nanoseconds(),
		Truncated:   d.Truncated,
	}
	if d.RGs != nil {
		w.RGs = make([]rgWire, len(d.RGs))
		for j := range d.RGs {
			e := &d.RGs[j]
			w.RGs[j] = rgWire{
				Components: e.Components,
				Size:       e.Size,
				Prob:       nanOmit(&e.Prob),
				Importance: nanOmit(&e.Importance),
			}
		}
	}
	return w
}

// fromWire is toWire's inverse.
func (d *DeploymentAudit) fromWire(w *auditWire) {
	*d = DeploymentAudit{
		Deployment:  w.Deployment,
		Sources:     w.Sources,
		Expected:    w.Expected,
		Unexpected:  w.Unexpected,
		Score:       orNaN(w.Score),
		ScoreTopN:   w.ScoreTopN,
		FailureProb: orNaN(w.FailureProb),
		Algorithm:   w.Algorithm,
		Elapsed:     time.Duration(w.ElapsedNS),
		Truncated:   w.Truncated,
	}
	if w.RGs != nil {
		d.RGs = make([]RGEntry, len(w.RGs))
		for j := range w.RGs {
			e := &w.RGs[j]
			d.RGs[j] = RGEntry{
				Components: e.Components,
				Size:       e.Size,
				Prob:       orNaN(e.Prob),
				Importance: orNaN(e.Importance),
			}
		}
	}
}

// wire is the report's wire form, pointing into the report.
func (r *Report) wire() *reportWire {
	w := &reportWire{Title: r.Title}
	if r.Audits != nil {
		w.Audits = make([]auditWire, len(r.Audits))
		for i := range r.Audits {
			w.Audits[i] = r.Audits[i].toWire()
		}
	}
	return w
}

// EncodeJSON writes the report to w as one compact, newline-terminated JSON
// line, unknown (NaN) probabilities omitted and elapsed times as integer
// nanoseconds. It is the codec's explicit encode entry point: callers that
// hold a *Report call it directly, because reaching the same bytes through
// json.Marshal(report) makes encoding/json re-validate and compact the
// marshaler's output — a second pass over every byte.
func EncodeJSON(w io.Writer, r *Report) error {
	return json.NewEncoder(w).Encode(r.wire())
}

// DecodeJSON decodes a report from its wire JSON, overwriting r whole. It is
// the explicit decode entry point: json.Unmarshal(data, report) validates
// data, finds the Unmarshaler and lands here to validate it again.
func DecodeJSON(data []byte, r *Report) error {
	var w reportWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{Title: w.Title}
	if w.Audits != nil {
		r.Audits = make([]DeploymentAudit, len(w.Audits))
		for i := range w.Audits {
			r.Audits[i].fromWire(&w.Audits[i])
		}
	}
	return nil
}

// MarshalJSON is EncodeJSON for callers that embed a report in a larger
// encoding/json value.
func (r Report) MarshalJSON() ([]byte, error) { return json.Marshal(r.wire()) }

// UnmarshalJSON is DecodeJSON for callers decoding a report embedded in a
// larger value.
func (r *Report) UnmarshalJSON(data []byte) error { return DecodeJSON(data, r) }
