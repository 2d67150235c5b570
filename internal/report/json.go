// Stable JSON encoding for audit reports.
//
// encoding/json refuses NaN outright, and unweighted audits legitimately
// carry NaN in RGEntry.Prob/Importance and DeploymentAudit.Score/FailureProb
// ("no probability known"). The codec encodes unknown probabilities by
// omission and decodes omission (or null) back to NaN, so a report
// round-trips bit-stable through the HTTP API, the store and the journal.
// Elapsed times are pinned to integer nanoseconds under "elapsed_ns".
//
// It hangs off Report alone and is written by hand: an append-based encoder
// and a single-pass validating decoder that reads straight into the report,
// because a report is read far more often than it is computed and
// encoding/json's reflection was four fifths of a hot read. The bytes and the
// decode semantics are encoding/json's, exactly — stored results, cluster
// peers and third-party clients depend on both — and codec_test.go holds the
// struct-tag codec this replaced as the differential oracle. A
// DeploymentAudit or RGEntry has no JSON form of its own — wrap it in a
// Report.
package report

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"indaas/internal/jsonscan"
)

// The wire keys of the three objects, in the order the encoder writes them.
// The constants index them: the encoder writes keys[k], the decoder's member
// answers k.
var (
	reportKeys = []string{"title", "audits"}
	auditKeys  = []string{"deployment", "sources", "expected", "rgs", "unexpected", "score",
		"score_top_n", "failure_prob", "algorithm", "elapsed_ns", "truncated"}
	rgKeys = []string{"components", "size", "prob", "importance"}
)

const (
	kTitle = iota
	kAudits
)

const (
	kDeployment = iota
	kSources
	kExpected
	kRGs
	kUnexpected
	kScore
	kScoreTopN
	kFailureProb
	kAlgorithm
	kElapsedNS
	kTruncated
)

const (
	kComponents = iota
	kSize
	kProb
	kImportance
)

// EncodeJSON writes the report to w as one compact, newline-terminated JSON
// line, unknown (NaN) probabilities omitted and elapsed times as integer
// nanoseconds. It is the codec's explicit encode entry point: callers that
// hold a *Report call it directly, because reaching the same bytes through
// json.Marshal(report) makes encoding/json re-validate and compact the
// marshaler's output — a second pass over every byte.
func EncodeJSON(w io.Writer, r *Report) error {
	b, err := appendReport(make([]byte, 0, sizeHint(r)+1), r)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// MarshalJSON is EncodeJSON for callers that embed a report in a larger
// encoding/json value.
func (r Report) MarshalJSON() ([]byte, error) {
	return appendReport(make([]byte, 0, sizeHint(&r)), &r)
}

// sizeHint estimates the encoded size from above for labels that need no
// escaping, so an encode is one buffer rather than a doubling series.
func sizeHint(r *Report) int {
	n := 32 + len(r.Title)
	for i := range r.Audits {
		a := &r.Audits[i]
		n += 256 + len(a.Deployment) + len(a.Algorithm) + labelsHint(a.Sources)
		for j := range a.RGs {
			e := &a.RGs[j]
			n += 32 + labelsHint(e.Components) // keys, brackets and a size
			if !math.IsNaN(e.Prob) {
				n += 32 // `,"prob":` and a float's 24 characters at most
			}
			if !math.IsNaN(e.Importance) {
				n += 38
			}
		}
	}
	return n
}

func labelsHint(labels []string) int {
	n := 0
	for _, s := range labels {
		n += len(s) + 3
	}
	return n
}

func appendReport(b []byte, r *Report) ([]byte, error) {
	b = jsonscan.AppendString(appendKey(b, '{', reportKeys[kTitle]), r.Title)
	b = appendKey(b, ',', reportKeys[kAudits])
	if r.Audits == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i := range r.Audits {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendAudit(b, &r.Audits[i]); err != nil {
			return nil, err
		}
	}
	return append(b, ']', '}'), nil
}

func appendAudit(b []byte, a *DeploymentAudit) ([]byte, error) {
	b = jsonscan.AppendString(appendKey(b, '{', auditKeys[kDeployment]), a.Deployment)
	b = appendStrings(appendKey(b, ',', auditKeys[kSources]), a.Sources)
	b = strconv.AppendInt(appendKey(b, ',', auditKeys[kExpected]), int64(a.Expected), 10)
	b = appendKey(b, ',', auditKeys[kRGs])
	if a.RGs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for j := range a.RGs {
			e := &a.RGs[j]
			if j > 0 {
				b = append(b, ',')
			}
			b = appendStrings(appendKey(b, '{', rgKeys[kComponents]), e.Components)
			b = strconv.AppendInt(appendKey(b, ',', rgKeys[kSize]), int64(e.Size), 10)
			var err error
			if b, err = appendProb(b, rgKeys[kProb], e.Prob); err != nil {
				return nil, err
			}
			if b, err = appendProb(b, rgKeys[kImportance], e.Importance); err != nil {
				return nil, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(appendKey(b, ',', auditKeys[kUnexpected]), int64(a.Unexpected), 10)
	var err error
	if b, err = appendProb(b, auditKeys[kScore], a.Score); err != nil {
		return nil, err
	}
	b = strconv.AppendInt(appendKey(b, ',', auditKeys[kScoreTopN]), int64(a.ScoreTopN), 10)
	if b, err = appendProb(b, auditKeys[kFailureProb], a.FailureProb); err != nil {
		return nil, err
	}
	b = jsonscan.AppendString(appendKey(b, ',', auditKeys[kAlgorithm]), a.Algorithm)
	b = strconv.AppendInt(appendKey(b, ',', auditKeys[kElapsedNS]), a.Elapsed.Nanoseconds(), 10)
	if a.Truncated {
		b = append(appendKey(b, ',', auditKeys[kTruncated]), "true"...)
	}
	return append(b, '}'), nil
}

// appendKey opens a member: open is '{' for an object's first and ','
// otherwise.
func appendKey(b []byte, open byte, key string) []byte {
	b = append(b, open, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendProb writes a ,"key":f member in encoding/json's float format,
// nothing for NaN — "unknown" is an omitted field — and fails on ±Inf, which
// JSON cannot carry and no audit produces.
func appendProb(b []byte, key string, f float64) ([]byte, error) {
	if math.IsNaN(f) {
		return b, nil
	}
	if math.IsInf(f, 0) {
		return nil, fmt.Errorf("report: unsupported value for %q: %v", key, f)
	}
	b = appendKey(b, ',', key)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	// e-09 → e-9, as ES6 and encoding/json write it.
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendStrings keeps nil and empty distinct: null vs [].
func appendStrings(b []byte, labels []string) []byte {
	if labels == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonscan.AppendString(b, s)
	}
	return append(b, ']')
}

// DecodeJSON decodes a report from its wire JSON, overwriting r whole and
// leaving it untouched on error. It is the explicit decode entry point:
// json.Unmarshal(data, report) validates data, finds the Unmarshaler and
// lands here to validate it again.
//
// One forward pass of the shared scanner (internal/jsonscan) validates and
// decodes; what it accepts and what each accepted input means is what
// encoding/json made of the same bytes (case-folded keys, unknown keys
// skipped, the last duplicate key winning over what the earlier ones left,
// null a no-op except into a slice). The report does not alias data. Its
// component, source and algorithm labels are interned — one string per
// distinct label — and its Sources and Components slices are
// capacity-capped slices of arrays they share (one of their total length for
// an input of up to maxScratchDecode bytes): appending to one copies it, and
// holding one holds its neighbours.
func DecodeJSON(data []byte, r *Report) error {
	d := decoder{jsonscan.Scanner{Data: data, Scratch: len(data) <= maxScratchDecode}}
	defer d.Release()
	var rep Report
	if err := d.document(&rep); err != nil {
		return fmt.Errorf("report: decode: %w", err)
	}
	// Arrays grow while they decode; a decoded report is often held for long
	// (by a client, a cache, a memo), so the arrays that make up most of it
	// keep no more capacity than they hold.
	rep.Audits = exact(rep.Audits)
	for i := range rep.Audits {
		rep.Audits[i].RGs = exact(rep.Audits[i].RGs)
	}
	if d.Scratch {
		keepLists(&rep)
	}
	*r = rep
	return nil
}

// maxScratchDecode is the largest input whose string lists DecodeJSON reads
// into a scratch chunk and then copies into one array of their exact
// length: a report of a few dozen RGs, whose own chunks would be mostly
// size-class rounding and an abandoned list. The chunks a larger report
// carves its lists from are large beside their slack, and the copy costs
// it more time than the chunks cost (BenchmarkReportDecode/real-k8).
const maxScratchDecode = 16 << 10

// keepLists copies every string list of rep, those past a slice's length
// included, out of the decoder's scratch chunk into one array of their total
// length, each list capacity-capped.
func keepLists(rep *Report) {
	n := 0
	for _, a := range rep.Audits[:cap(rep.Audits)] {
		n += len(a.Sources)
		for _, e := range a.RGs[:cap(a.RGs)] {
			n += len(e.Components)
		}
	}
	buf := make([]string, n)
	keep := func(l *[]string) {
		if len(*l) > 0 {
			k := copy(buf, *l)
			*l, buf = buf[:k:k], buf[k:]
		}
	}
	for i := range rep.Audits[:cap(rep.Audits)] {
		a := &rep.Audits[:cap(rep.Audits)][i]
		keep(&a.Sources)
		for j := range a.RGs[:cap(a.RGs)] {
			keep(&a.RGs[:cap(a.RGs)][j].Components)
		}
	}
}

// exact returns s in a backing array of its own length when the spare
// capacity is a quarter of it or more.
func exact[T any](s []T) []T {
	if cap(s)-len(s) < len(s)/4+1 {
		return s
	}
	return slices.Clone(s)
}

// UnmarshalJSON is DecodeJSON for callers decoding a report embedded in a
// larger value.
func (r *Report) UnmarshalJSON(data []byte) error { return DecodeJSON(data, r) }

type decoder struct{ jsonscan.Scanner }

func (d *decoder) document(rep *Report) error {
	obj, err := d.Object("a report object")
	if obj {
		err = d.report(rep)
	}
	if err != nil {
		return err
	}
	if d.Peek(); d.Pos < len(d.Data) {
		return d.Expected("nothing after the report")
	}
	return nil
}

// The value readers below take what a duplicate key or a reused slice element
// left in the field: null leaves a scalar as it was, as in encoding/json.

// numeral reads the literal of a number-typed value, nil for null.
func (d *decoder) numeral(what string) (lit []byte, integer bool, err error) {
	switch c := d.Peek(); {
	case c == 'n':
		return nil, false, d.Literal("null")
	case jsonscan.IsNumberStart(c):
		return d.Number()
	}
	return nil, false, d.Expected(what)
}

// integer reads a whole number of the given width.
func (d *decoder) integer(old int64, bits int) (int64, error) {
	lit, integer, err := d.numeral("an integer")
	if lit == nil {
		return old, err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if !integer || err != nil {
		return old, fmt.Errorf("number %s at offset %d is not an integer its field can hold", lit, d.Pos-len(lit))
	}
	return n, nil
}

func (d *decoder) intField(old int) (int, error) {
	n, err := d.integer(int64(old), strconv.IntSize)
	return int(n), err
}

// prob reads a probability: null, like omission, is NaN.
func (d *decoder) prob() (float64, error) {
	lit, _, err := d.numeral("a number")
	if lit == nil {
		return math.NaN(), err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s at offset %d is out of range", lit, d.Pos-len(lit))
	}
	return f, nil
}

func (d *decoder) boolean(old bool) (bool, error) {
	switch d.Peek() {
	case 'n':
		return old, d.Literal("null")
	case 't':
		return true, d.Literal("true")
	case 'f':
		return false, d.Literal("false")
	}
	return old, d.Expected("a boolean")
}

func (d *decoder) report(r *Report) error {
	for first := true; ; first = false {
		k, done, err := d.Member(first, reportKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case kTitle:
			r.Title, err = d.Text(r.Title, false)
		case kAudits:
			err = jsonscan.Elements(&d.Scanner, &r.Audits, DeploymentAudit{Score: math.NaN(), FailureProb: math.NaN()}, d.audit)
		default:
			err = d.Skip(1)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) audit(a *DeploymentAudit) error {
	if obj, err := d.Object("an audit object"); !obj {
		return err
	}
	for first := true; ; first = false {
		k, done, err := d.Member(first, auditKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case kDeployment:
			a.Deployment, err = d.Text(a.Deployment, false)
		case kSources:
			err = d.Strings(&a.Sources, true)
		case kExpected:
			a.Expected, err = d.intField(a.Expected)
		case kRGs:
			err = jsonscan.Elements(&d.Scanner, &a.RGs, RGEntry{Prob: math.NaN(), Importance: math.NaN()}, d.rg)
		case kUnexpected:
			a.Unexpected, err = d.intField(a.Unexpected)
		case kScore:
			a.Score, err = d.prob()
		case kScoreTopN:
			a.ScoreTopN, err = d.intField(a.ScoreTopN)
		case kFailureProb:
			a.FailureProb, err = d.prob()
		case kAlgorithm:
			a.Algorithm, err = d.Text(a.Algorithm, true)
		case kElapsedNS:
			var ns int64
			ns, err = d.integer(a.Elapsed.Nanoseconds(), 64)
			a.Elapsed = time.Duration(ns)
		case kTruncated:
			a.Truncated, err = d.boolean(a.Truncated)
		default:
			err = d.Skip(3)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) rg(e *RGEntry) error {
	if obj, err := d.Object("a risk-group object"); !obj {
		return err
	}
	for first := true; ; first = false {
		k, done, err := d.Member(first, rgKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case kComponents:
			err = d.Strings(&e.Components, true)
		case kSize:
			e.Size, err = d.intField(e.Size)
		case kProb:
			e.Prob, err = d.prob()
		case kImportance:
			e.Importance, err = d.prob()
		default:
			err = d.Skip(5)
		}
		if err != nil {
			return err
		}
	}
}
