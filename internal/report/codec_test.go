package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The oracle: the nested per-type marshalers the flat codec replaced, kept
// verbatim on mirror types. Stored results, journal records, goldens and SSE
// events written through them must stay readable, and everything written
// today must be byte-identical to what they would have written.

type oracleRG struct {
	Components []string
	Size       int
	Prob       float64
	Importance float64
}

type oracleRGJSON struct {
	Components []string `json:"components"`
	Size       int      `json:"size"`
	Prob       *float64 `json:"prob,omitempty"`
	Importance *float64 `json:"importance,omitempty"`
}

func oracleNaNOmit(f float64) *float64 {
	if math.IsNaN(f) {
		return nil
	}
	return &f
}

func (e oracleRG) MarshalJSON() ([]byte, error) {
	return json.Marshal(oracleRGJSON{
		Components: e.Components,
		Size:       e.Size,
		Prob:       oracleNaNOmit(e.Prob),
		Importance: oracleNaNOmit(e.Importance),
	})
}

func (e *oracleRG) UnmarshalJSON(data []byte) error {
	var w oracleRGJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*e = oracleRG{Components: w.Components, Size: w.Size, Prob: orNaN(w.Prob), Importance: orNaN(w.Importance)}
	return nil
}

type oracleAudit struct {
	Deployment  string
	Sources     []string
	Expected    int
	RGs         []oracleRG
	Unexpected  int
	Score       float64
	ScoreTopN   int
	FailureProb float64
	Algorithm   string
	Elapsed     time.Duration
	Truncated   bool
}

type oracleAuditJSON struct {
	Deployment  string     `json:"deployment"`
	Sources     []string   `json:"sources"`
	Expected    int        `json:"expected"`
	RGs         []oracleRG `json:"rgs"`
	Unexpected  int        `json:"unexpected"`
	Score       *float64   `json:"score,omitempty"`
	ScoreTopN   int        `json:"score_top_n"`
	FailureProb *float64   `json:"failure_prob,omitempty"`
	Algorithm   string     `json:"algorithm"`
	ElapsedNS   int64      `json:"elapsed_ns"`
	Truncated   bool       `json:"truncated,omitempty"`
}

func (d oracleAudit) MarshalJSON() ([]byte, error) {
	return json.Marshal(oracleAuditJSON{
		Deployment:  d.Deployment,
		Sources:     d.Sources,
		Expected:    d.Expected,
		RGs:         d.RGs,
		Unexpected:  d.Unexpected,
		Score:       oracleNaNOmit(d.Score),
		ScoreTopN:   d.ScoreTopN,
		FailureProb: oracleNaNOmit(d.FailureProb),
		Algorithm:   d.Algorithm,
		ElapsedNS:   d.Elapsed.Nanoseconds(),
		Truncated:   d.Truncated,
	})
}

func (d *oracleAudit) UnmarshalJSON(data []byte) error {
	var w oracleAuditJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*d = oracleAudit{
		Deployment:  w.Deployment,
		Sources:     w.Sources,
		Expected:    w.Expected,
		RGs:         w.RGs,
		Unexpected:  w.Unexpected,
		Score:       orNaN(w.Score),
		ScoreTopN:   w.ScoreTopN,
		FailureProb: orNaN(w.FailureProb),
		Algorithm:   w.Algorithm,
		Elapsed:     time.Duration(w.ElapsedNS),
		Truncated:   w.Truncated,
	}
	return nil
}

type oracleReport struct {
	Title  string        `json:"title"`
	Audits []oracleAudit `json:"audits"`
}

// toOracle mirrors a report onto the oracle types, keeping nil-vs-empty
// slices as they are.
func toOracle(r *Report) *oracleReport {
	o := &oracleReport{Title: r.Title}
	if r.Audits != nil {
		o.Audits = make([]oracleAudit, len(r.Audits))
	}
	for i, d := range r.Audits {
		a := oracleAudit{
			Deployment: d.Deployment, Sources: d.Sources, Expected: d.Expected,
			Unexpected: d.Unexpected, Score: d.Score, ScoreTopN: d.ScoreTopN,
			FailureProb: d.FailureProb, Algorithm: d.Algorithm, Elapsed: d.Elapsed,
			Truncated: d.Truncated,
		}
		if d.RGs != nil {
			a.RGs = make([]oracleRG, len(d.RGs))
		}
		for j, e := range d.RGs {
			a.RGs[j] = oracleRG(e)
		}
		o.Audits[i] = a
	}
	return o
}

// sameFloat is equality with every NaN equal to every other NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func sameStrings(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffOracle reports the first difference between a decoded report and the
// oracle's decode of the same bytes: NaN-aware, nil-vs-empty-aware.
func diffOracle(r *Report, o *oracleReport) string {
	if r.Title != o.Title {
		return fmt.Sprintf("title %q vs %q", r.Title, o.Title)
	}
	if (r.Audits == nil) != (o.Audits == nil) || len(r.Audits) != len(o.Audits) {
		return fmt.Sprintf("audits nil=%v len=%d vs nil=%v len=%d", r.Audits == nil, len(r.Audits), o.Audits == nil, len(o.Audits))
	}
	for i := range r.Audits {
		d, a := &r.Audits[i], &o.Audits[i]
		switch {
		case d.Deployment != a.Deployment, !sameStrings(d.Sources, a.Sources), d.Expected != a.Expected,
			d.Unexpected != a.Unexpected, !sameFloat(d.Score, a.Score), d.ScoreTopN != a.ScoreTopN,
			!sameFloat(d.FailureProb, a.FailureProb), d.Algorithm != a.Algorithm, d.Elapsed != a.Elapsed,
			d.Truncated != a.Truncated:
			return fmt.Sprintf("audit %d: %+v vs %+v", i, *d, *a)
		}
		if (d.RGs == nil) != (a.RGs == nil) || len(d.RGs) != len(a.RGs) {
			return fmt.Sprintf("audit %d rgs nil=%v len=%d vs nil=%v len=%d", i, d.RGs == nil, len(d.RGs), a.RGs == nil, len(a.RGs))
		}
		for j := range d.RGs {
			e, f := &d.RGs[j], &a.RGs[j]
			if !sameStrings(e.Components, f.Components) || e.Size != f.Size ||
				!sameFloat(e.Prob, f.Prob) || !sameFloat(e.Importance, f.Importance) {
				return fmt.Sprintf("audit %d rg %d: %+v vs %+v", i, j, *e, *f)
			}
		}
	}
	return ""
}

// checkAgainstOracle asserts the two properties the codec owes its callers:
// encode is byte-identical to the nested marshalers, and decode of those
// bytes yields the report the nested unmarshalers would have.
func checkAgainstOracle(t testing.TB, rep *Report) []byte {
	t.Helper()
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want, err := json.Marshal(toOracle(rep))
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encode differs from the oracle.\ngot:  %s\nwant: %s", got, want)
	}
	var back Report
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	var oback oracleReport
	if err := json.Unmarshal(got, &oback); err != nil {
		t.Fatalf("oracle unmarshal: %v", err)
	}
	if d := diffOracle(&back, &oback); d != "" {
		t.Fatalf("decode differs from the oracle: %s\nbytes: %s", d, got)
	}
	return got
}

// hostile labels: everything encoding/json escapes or rewrites.
var labelAlphabet = []string{
	"ToR", "core->agg", "<script>", "a&b", `q"uote`, `back\slash`, "ünï-cödé", "日本", " ", "\x00", "tab\t", "bad\xffutf8", "",
}

func randLabel(rng *rand.Rand) string {
	s := labelAlphabet[rng.Intn(len(labelAlphabet))]
	if rng.Intn(2) == 0 {
		s += fmt.Sprint(rng.Intn(100))
	}
	return s
}

func randStrings(rng *rand.Rand, max int) []string {
	switch rng.Intn(6) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(max))
	for i := range out {
		out[i] = randLabel(rng)
	}
	return out
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.NaN()
	case 1:
		return 0
	case 2:
		return float64(rng.Intn(5))
	case 3:
		return rng.Float64() * 1e-12
	case 4:
		return -rng.Float64() * 1e21
	}
	return rng.Float64()
}

func randReport(rng *rand.Rand) *Report {
	rep := &Report{Title: randLabel(rng)}
	switch rng.Intn(8) {
	case 0:
		return rep // nil audits
	case 1:
		rep.Audits = []DeploymentAudit{}
		return rep
	}
	rep.Audits = make([]DeploymentAudit, 1+rng.Intn(4))
	for i := range rep.Audits {
		d := &rep.Audits[i]
		*d = DeploymentAudit{
			Deployment:  randLabel(rng),
			Sources:     randStrings(rng, 4),
			Expected:    rng.Intn(4),
			Unexpected:  rng.Intn(9),
			Score:       randFloat(rng),
			ScoreTopN:   rng.Intn(6),
			FailureProb: randFloat(rng),
			Algorithm:   randLabel(rng),
			Elapsed:     time.Duration(rng.Int63n(int64(time.Hour))) - time.Minute,
			Truncated:   rng.Intn(3) == 0,
		}
		switch rng.Intn(6) {
		case 0: // nil RGs
		case 1:
			d.RGs = []RGEntry{}
		default:
			d.RGs = make([]RGEntry, 1+rng.Intn(12))
			for j := range d.RGs {
				d.RGs[j] = RGEntry{
					Components: randStrings(rng, 5),
					Size:       rng.Intn(7),
					Prob:       randFloat(rng),
					Importance: randFloat(rng),
				}
			}
		}
	}
	return rep
}

func TestCodecMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 2000; i++ {
		checkAgainstOracle(t, randReport(rng))
	}
	checkAgainstOracle(t, fixtureReport())
	checkAgainstOracle(t, &Report{})
}

// TestReportMarshalsByValueAndEmbedded pins the two call shapes outside a
// plain json.Marshal(&rep): a Report passed by value, and a *Report field
// with omitempty (the SSE WatchEvent shape).
func TestReportMarshalsByValueAndEmbedded(t *testing.T) {
	rep := fixtureReport()
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(*rep); err != nil || !bytes.Equal(got, want) {
		t.Errorf("by value: err=%v\ngot:  %s\nwant: %s", err, got, want)
	}
	type event struct {
		Seq    int     `json:"seq"`
		Report *Report `json:"report,omitempty"`
	}
	got, err := json.Marshal(event{Seq: 1, Report: rep})
	if wantEv := `{"seq":1,"report":` + string(want) + `}`; err != nil || string(got) != wantEv {
		t.Errorf("embedded: err=%v\ngot:  %s\nwant: %s", err, got, wantEv)
	}
	if got, _ := json.Marshal(event{Seq: 2}); string(got) != `{"seq":2}` {
		t.Errorf("nil embedded report: %s", got)
	}
	var ev event
	if err := json.Unmarshal(got, &ev); err != nil || ev.Report == nil {
		t.Fatalf("embedded decode: err=%v ev=%+v", err, ev)
	}
	checkAgainstOracle(t, ev.Report)
}

// goldenSeeds are the committed golden reports of this repository: the
// report package's own and the audit service's end-to-end one.
func goldenSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, p := range []string{
		filepath.Join("testdata", "report_golden.json"),
		filepath.Join("..", "auditd", "testdata", "e2e_report_golden.json"),
	} {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	return seeds
}

// FuzzReportRoundTrip: any bytes the new decoder accepts, the oracle accepts
// with the same result, and the decoded report re-encodes stably and
// identically under both codecs. Plain `go test` runs it over the seeds: the
// committed goldens and the hand-written corner cases below.
func FuzzReportRoundTrip(f *testing.F) {
	for _, seed := range goldenSeeds(f) {
		f.Add(seed)
	}
	// Bytes neither encoder writes: nulls where slices and numbers go, missing
	// fields, unknown and differently-cased keys, other job kinds' payloads,
	// and malformed or mistyped input (which must fail in both decoders).
	for _, seed := range []string{
		`null`, `{}`, `{"title":"t","audits":null}`, `{"title":"t","audits":[]}`,
		`{"audits":[null]}`, `{"audits":[{}]}`,
		`{"audits":[{"rgs":null,"sources":null,"score":null,"failure_prob":null}]}`,
		`{"audits":[{"rgs":[null,{},{"components":null,"prob":null,"importance":0}]}]}`,
		`{"Title":"case","AUDITS":[{"Deployment":"a->b","RGS":[{"SIZE":3}]}]}`,
		`{"title":"x","extra":{"a":[1,2]},"audits":[{"deployment":"d","unknown":true,"elapsed_ns":42}]}`,
		`{"title":"rec","strategy":"exhaustive","rankings":[{"rank":1}],"elapsed_ns":7}`,
		`{"title":"pia","protocol":"psop","entries":[],"providers":[]}`,
		``, `{`, `[]`, `"s"`, `{"audits":{}}`, `{"audits":[{"rgs":[{"size":"x"}]}]}`, `{"title":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep Report
		var o oracleReport
		err, oerr := json.Unmarshal(data, &rep), json.Unmarshal(data, &o)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("decode error mismatch: %v vs oracle %v", err, oerr)
		}
		if err != nil {
			return
		}
		if d := diffOracle(&rep, &o); d != "" {
			t.Fatalf("decode differs from the oracle: %s", d)
		}
		first := checkAgainstOracle(t, &rep)
		var again Report
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(&again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("encode is not stable (err=%v)\nfirst:  %s\nsecond: %s", err, first, second)
		}
	})
}

// sizedReport builds a weighted single-deployment report with n risk groups
// shaped like the service's: a handful of component labels each.
func sizedReport(n int) *Report {
	rgs := make([]RGEntry, n)
	for i := range rgs {
		comps := make([]string, 2+i%4)
		for c := range comps {
			comps[c] = fmt.Sprintf("agg%d_%d->core%d", i%16, c, (i+c)%64)
		}
		rgs[i] = RGEntry{Components: comps, Size: len(comps), Prob: 1e-4 / float64(i+1), Importance: 1 / float64(i+2)}
	}
	return &Report{Title: fmt.Sprintf("bench %d", n), Audits: []DeploymentAudit{{
		Deployment: "srv0_0_0+srv1_0_0", Sources: []string{"srv0_0_0", "srv1_0_0"}, Expected: 2,
		RGs: rgs, Unexpected: 1, Score: 1.5, ScoreTopN: 5, FailureProb: 0.0123,
		Algorithm: "minimal-rg", Elapsed: 42 * time.Millisecond,
	}}}
}

// benchSizes are the RG counts of the benchmark's three report shapes:
// fig7_sampling (~45), restart_read (~150) and fig7_exact (767).
var benchSizes = []int{45, 150, 767}

// TestEncodeAllocsBoundedByRGs gates the point of the flat codec: encode
// cost no longer carries a per-risk-group allocation multiple (the nested
// marshalers spent ≥4 per entry).
func TestEncodeAllocsBoundedByRGs(t *testing.T) {
	for _, n := range benchSizes {
		rep := sizedReport(n)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(n + 16); allocs > limit {
			t.Errorf("%d RGs: %.0f allocs per encode, want ≤ %.0f", n, allocs, limit)
		}
	}
}

var benchSink any

// BenchmarkReportEncode times both ways to the same bytes: "marshal" is
// json.Marshal(report), which re-validates and compacts what MarshalJSON
// returns; "direct" is EncodeJSON, the entry point the daemon's encode-once
// calls.
func BenchmarkReportEncode(b *testing.B) {
	for _, n := range benchSizes {
		rep := sizedReport(n)
		b.Run(fmt.Sprintf("%d/marshal", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blob, err := json.Marshal(rep)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = blob
			}
		})
		b.Run(fmt.Sprintf("%d/direct", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := EncodeJSON(&buf, rep); err != nil {
					b.Fatal(err)
				}
				benchSink = buf.Bytes()
			}
		})
	}
}

// BenchmarkReportDecode: "unmarshal" is json.Unmarshal(blob, report), which
// validates blob, finds the Unmarshaler and validates it again inside;
// "direct" is DecodeJSON — one validation scan.
func BenchmarkReportDecode(b *testing.B) {
	for _, n := range benchSizes {
		blob, err := json.Marshal(sizedReport(n))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%d/unmarshal", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				rep := new(Report)
				if err := json.Unmarshal(blob, rep); err != nil {
					b.Fatal(err)
				}
				benchSink = rep
			}
		})
		b.Run(fmt.Sprintf("%d/direct", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				rep := new(Report)
				if err := DecodeJSON(blob, rep); err != nil {
					b.Fatal(err)
				}
				benchSink = rep
			}
		})
	}
}

// TestExplicitEntryPointsMatchMarshalers: EncodeJSON writes exactly
// json.Marshal's bytes plus a newline, DecodeJSON reads them back to the
// report json.Unmarshal produces, and both reject what the wrappers reject.
func TestExplicitEntryPointsMatchMarshalers(t *testing.T) {
	for _, n := range append([]int{0}, benchSizes...) {
		rep := sizedReport(n)
		rep.Title = `t "<&>" ü`
		want, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, rep); err != nil || buf.String() != string(want)+"\n" {
			t.Fatalf("%d RGs: EncodeJSON (%v) differs from json.Marshal plus a newline", n, err)
		}
		var direct, wrapped Report
		if err := DecodeJSON(buf.Bytes(), &direct); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wrapped); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%#v", direct), fmt.Sprintf("%#v", wrapped); got != want {
			t.Fatalf("%d RGs: DecodeJSON and json.Unmarshal disagree", n)
		}
	}
	bad := sizedReport(1)
	bad.Audits[0].RGs[0].Prob = math.Inf(1)
	if err := EncodeJSON(io.Discard, bad); err == nil {
		t.Error("EncodeJSON accepted +Inf")
	}
	if err := DecodeJSON([]byte(`{"audits":`), new(Report)); err == nil {
		t.Error("DecodeJSON accepted truncated input")
	}
}
