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
	"runtime"
	"strings"
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

// The second oracle: the struct-tag codec the hand-written one replaced —
// flat wire structs through encoding/json each way — kept verbatim. Its decode
// defines what the new decoder must accept and what each accepted input
// means; its encode, the bytes.

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

// wireEncodeJSON is the replaced EncodeJSON.
func wireEncodeJSON(w io.Writer, r *Report) error {
	return json.NewEncoder(w).Encode(r.wire())
}

// wireDecodeJSON is the replaced DecodeJSON.
func wireDecodeJSON(data []byte, r *Report) error {
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

// FuzzReportRoundTrip: the decoder and the PR 12 marshalers accept the same
// bytes, and the decoded report re-encodes stably and identically under both
// codecs. Plain `go test` runs it over the seeds: the committed goldens and
// the hand-written corner cases below. What arbitrary bytes decode *to* is
// FuzzDecodeMatchesEncodingJSON's business, against the struct-tag codec: the
// nested unmarshalers overwrote a slice element whole where a struct decode
// merges into it, so since PR 13 a duplicate "rgs" or "audits" key means
// something else than it did under them (the last seed; this target found it
// on the PR 13 codec as on this one).
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
		`{"Audits":[{"rgs":[{"proB":0.0}],"rgs":[{}]}]}`,
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

// differentialSeeds are inputs chosen against a hand-written parser's usual
// mistakes; FuzzDecodeMatchesEncodingJSON starts from them and plain `go
// test` runs it over them.
func differentialSeeds(tb testing.TB) [][]byte {
	seeds := goldenSeeds(tb)
	// What PR 12's daemon stored: every codec special case at once.
	blob, err := os.ReadFile(filepath.Join("..", "auditd", "testdata", "stored_result_pr12.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var stored struct{ Payload json.RawMessage }
	if err := json.Unmarshal(blob, &stored); err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, stored.Payload)
	k8, k16 := RealShapes(tb)
	for _, rep := range []*Report{k8, k16, sizedReport(3)} {
		var buf bytes.Buffer
		if err := wireEncodeJSON(&buf, rep); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	for _, seed := range []string{
		// Duplicate keys: each decodes over what the one before left.
		`{"title":"a","title":null}`, `{"title":null,"title":"b"}`, `{"title":"a","title":"b"}`,
		`{"audits":[{"score":1,"score":null,"expected":2,"expected":null,"truncated":true,"truncated":null}]}`,
		`{"audits":[{"rgs":[{"components":["a","b"],"components":null}]}]}`,
		`{"audits":[{"rgs":[{"components":null,"components":["a"]}]}]}`,
		`{"audits":[{"rgs":[{"components":["a","b"],"components":[]}]}]}`,
		`{"audits":[{"rgs":[{"components":["a","b"],"components":["c"],"components":[null,null,null]}]}]}`,
		`{"audits":[{"sources":["a","b","c"],"sources":[null,"x"]}]}`,
		`{"audits":[{"expected":1,"deployment":"d"}],"audits":[{"unexpected":2}]}`,
		`{"audits":[{"expected":1},{"expected":2,"score":0.5}],"audits":[{}],"audits":[null,{},{}]}`,
		`{"audits":[{"rgs":[{"prob":0.5,"size":1},{"size":2}],"rgs":[{"importance":1}],"rgs":[{},{},{}]}]}`,
		`{"audits":[{"expected":1}],"audits":null,"audits":[{}]}`,
		`{"audits":[{"expected":1}],"audits":[],"audits":[{}]}`,
		`{"audits":[{"rgs":[{"size":1}],"rgs":null},{"rgs":[{"size":1}],"rgs":[]}]}`,
		// Keys: case folding (Unicode's, so the long s and the Kelvin sign),
		// escapes, near misses.
		`{"TITLE":"t","Audits":[{"DEPLOYMENT":"d","Score_Top_N":3,"ELAPSED_ns":5,"RGs":[{"\u0073ize":2,"COMPONENTS":["c"]}]}]}`,
		`{"audit\u017f":[{"\u017fcore":2,"un\u212aexpected":1,"rg\u017f":[{"\u017fize":1}]}]}`,
		"{\"audit\u017f\":[{\"\u017fize\":1,\"\u017fources\":[\"s\"]}],\"t\u0131tle\":\"dotless\",\"titl\xe9\":1,\"tit\xffle\":2}",
		`{"title ":1,"titl":2,"titlee":3,"":4,"titl\u00b5":5,"audits":[{"sources ":1,"rgs":[{"size\u0000":1}]}]}`,
		// Strings: every escape, surrogate pairs and halves, invalid UTF-8,
		// U+2028, bad escapes and raw control bytes.
		`{"title":"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud83d\udbff\ude00 \u2028","audits":[{"sources":["\u0061","a","\u0000"]}]}`,
		"{\"title\":\"\xff\xc3\x28\xe2\x80\xa8 caf\xc3\xa9\",\"audits\":[{\"algorithm\":\"\xf0\x9f\x98\x80\",\"sources\":[\"\xf0\x9f\x98\x80\",\"\xf0\x9f\x98\x80\"]}]}",
		`{"title":"\x"}`, `{"title":"\u12g4"}`, `{"title":"\u12"}`, `{"title":"\`, `{"title":"abc`, "{\"title\":\"a\nb\"}", "{\"title\":\"a\x00b\"}", "{\"ti\ttle\":1}",
		// Numbers: what an int field takes, float range, the grammar's edges.
		`{"audits":[{"expected":-0,"unexpected":9223372036854775807,"elapsed_ns":-9223372036854775808,"score":-0,"failure_prob":1e-400,"rgs":[{"size":0,"prob":1E+2,"importance":0.1e-6}]}]}`,
		`{"audits":[{"expected":9223372036854775808}]}`, `{"audits":[{"elapsed_ns":-9223372036854775809}]}`,
		`{"audits":[{"expected":1.0}]}`, `{"audits":[{"expected":1e2}]}`, `{"audits":[{"rgs":[{"size":1.5}]}]}`,
		`{"audits":[{"score":1e400}]}`, `{"audits":[{"score":-1e400}]}`, `{"audits":[{"score":1.7976931348623157e308}]}`,
		`{"audits":[{"score":01}]}`, `{"audits":[{"score":-}]}`, `{"audits":[{"score":1.}]}`, `{"audits":[{"score":.5}]}`,
		`{"audits":[{"expected":-}]}`, `{"audits":[{"expected":1.}]}`, `{"audits":[{"score":1e}]}`, `{"audits":[{"score":1e+}]}`, `{"audits":[{"score":+1}]}`, `{"audits":[{"score":0x10}]}`,
		`{"audits":[{"score":12345678901234567890123456789012345678901234567890}]}`, `{"x":-0.0e-0,"y":[0,-0,1E9]}`,
		// Types: null is a no-op or a nil slice; anything else mistyped fails.
		`{"title":null,"audits":[{"deployment":null,"sources":[null],"expected":null,"rgs":[null],"unexpected":null,"score":null,"algorithm":null,"elapsed_ns":null,"truncated":null}]}`,
		`{"title":true}`, `{"title":[]}`, `{"title":{}}`, `{"audits":true}`, `{"audits":"x"}`, `{"audits":1}`, `{"audits":[1]}`, `{"audits":[[]]}`,
		`{"audits":[{"sources":{}}]}`, `{"audits":[{"sources":[1]}]}`, `{"audits":[{"sources":"s"}]}`, `{"audits":[{"truncated":1}]}`, `{"audits":[{"truncated":"true"}]}`,
		`{"audits":[{"truncated":false,"expected":"1"}]}`, `{"audits":[{"score":"1"}]}`, `{"audits":[{"score":true}]}`, `{"audits":[{"rgs":[{"components":[[]]}]}]}`,
		`{"audits":[{"deployment":1}]}`, `{"audits":[{"algorithm":false}]}`, `{"audits":[{"rgs":{}}]}`, `{"audits":[{"rgs":[true]}]}`,
		// Structure: whitespace everywhere, unknown keys of every shape, deep
		// nesting under one, and the grammar's stray commas and colons.
		" \t\r\n{ \"title\" : \"t\" , \"audits\" : [ { \"rgs\" : [ { \"components\" : [ \"a\" , \"b\" ] , \"size\" : 2 } , null ] } ] } \n",
		`{"x":{"a":[1,2.5e3,{"b":null,"c":[true,false,"s\n"]}],"":{}},"audits":[{"y":[[[[]]]],"rgs":[{"z":{"k":"v"}}]}]}`,
		`{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `,"title":"deep"}`,
		`{"x":` + strings.Repeat(`{"k":[`, 40) + strings.Repeat(`]}`, 40) + `}`,
		`{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 99) + `}`,
		`{"x":[1,]}`, `{"x":[,1]}`, `{"x":[1 2]}`, `{"x":{"a":1,}}`, `{"x":{,}}`, `{"x":{"a" 1}}`, `{"x":{"a":}}`, `{"x":{a:1}}`, `{"x":{1:1}}`,
		`{,}`, `{"title":"t",}`, `{"title" "t"}`, `{"title":}`, `{"audits":[{}{}]}`, `{"audits":[{},]}`, `{"audits":[{"rgs":[{},]}]}`, `{"audits":[{"sources":["a",]}]}`,
		`{"x":nul}`, `{"x":nulll}`, `{"x":tru}`, `{"x":fals}`, `{"x":truefalse}`, `{"title":nul}`, `{"audits":nul}`, `{"audits":[{"score":nul}]}`,
		`{} {}`, `{}x`, `{}]`, "{}\x00", "\xef\xbb\xbf{}", `nul`, `nulll`, `null null`, ` null `, `true`, `1`, `-`, `"`, `[`, `]`, `}`,
	} {
		seeds = append(seeds, []byte(seed))
	}
	// A small report cut at every byte: each way of ending early.
	small := `{"title":"t\n","audits":[{"deployment":"d","sources":["s"],"expected":1,"rgs":[{"components":["c"],"size":1,"prob":1e-7}],"score":1.5,"elapsed_ns":12,"truncated":true,"x":[null]}]}`
	for i := 0; i < len(small); i++ {
		seeds = append(seeds, []byte(small[:i]))
	}
	return seeds
}

// FuzzDecodeMatchesEncodingJSON is the decoder's contract: on any bytes it
// accepts exactly what the struct-tag codec accepted, decodes them to the
// same report field by field (NaN = NaN, nil ≠ empty), leaves its target
// alone when it fails, and the report it decoded encodes to the same bytes
// under both encoders.
func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	for _, seed := range differentialSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := Report{Title: "untouched", Audits: []DeploymentAudit{{Deployment: "untouched"}}}
		var want Report
		err, werr := DecodeJSON(data, &got), wireDecodeJSON(data, &want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode error mismatch: %v vs encoding/json's %v", err, werr)
		}
		if err != nil {
			if got.Title != "untouched" || len(got.Audits) != 1 || got.Audits[0].Deployment != "untouched" {
				t.Fatalf("a failed decode (%v) wrote to its target: %+v", err, got)
			}
			return
		}
		if d := diffOracle(&got, toOracle(&want)); d != "" {
			t.Fatalf("decode differs from encoding/json's: %s", d)
		}
		var b, wb bytes.Buffer
		if err := EncodeJSON(&b, &got); err != nil {
			t.Fatal(err)
		}
		if err := wireEncodeJSON(&wb, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), wb.Bytes()) {
			t.Fatalf("encode differs from encoding/json's.\ngot:  %s\nwant: %s", b.Bytes(), wb.Bytes())
		}
	})
}

// TestDecodeNestingLimit: encoding/json refuses documents nested past 10,000
// levels, counting the report's own; so does the decoder, which is what keeps
// its recursion over an unknown key's value bounded.
func TestDecodeNestingLimit(t *testing.T) {
	nested := func(prefix string, levels int, suffix string) []byte {
		return []byte(prefix + strings.Repeat("[", levels) + strings.Repeat("]", levels) + suffix)
	}
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"report level, at the limit", nested(`{"x":`, 9999, `}`), true},
		{"report level, past it", nested(`{"x":`, 10000, `}`), false},
		{"audit level, at the limit", nested(`{"audits":[{"x":`, 9997, `}]}`), true},
		{"audit level, past it", nested(`{"audits":[{"x":`, 9998, `}]}`), false},
		{"risk-group level, at the limit", nested(`{"audits":[{"rgs":[{"x":`, 9995, `}]}]}`), true},
		{"risk-group level, past it", nested(`{"audits":[{"rgs":[{"x":`, 9996, `}]}]}`), false},
		{"far past it", nested(`{"x":`, 1_000_000, `}`), false},
	} {
		err, werr := DecodeJSON(tc.data, new(Report)), wireDecodeJSON(tc.data, new(Report))
		if (err == nil) != tc.ok || (werr == nil) != tc.ok {
			t.Errorf("%s: decode ok=%v, encoding/json ok=%v, want %v", tc.name, err == nil, werr == nil, tc.ok)
		}
	}
}

// TestDecodeErrorsNameTheOffset: a rejected input says where and what was
// expected there.
func TestDecodeErrorsNameTheOffset(t *testing.T) {
	for _, tc := range []struct{ data, want string }{
		{`{"title":"t",}`, `invalid character '}' at offset 13, expected an object key`},
		{`{"audits":[{"expected":"1"}]}`, `invalid character '"' at offset 23, expected an integer`},
		{`{"audits":[{"rgs":[{"size":1.5}]}]}`, `number 1.5 at offset 27 is not an integer its field can hold`},
		{`{"audits":[{"score":1e400}]}`, `number 1e400 at offset 20 is out of range`},
		{`{"title":"abc`, `unexpected end of input at offset 13, expected a closing quote`},
		{`{"title":"a\qb"}`, `invalid character 'q' at offset 12, expected an escape character`},
		{`{} x`, `invalid character 'x' at offset 3, expected nothing after the report`},
		{`[]`, `invalid character '[' at offset 0, expected a report object`},
		{``, `unexpected end of input at offset 0, expected a report object`},
	} {
		err := DecodeJSON([]byte(tc.data), new(Report))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want it to contain %q", tc.data, err, tc.want)
		}
	}
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

// RealShapes builds the reports of the benchmark's two datasets — a cross-pod
// pair on restart_read's three-kind k=8 fleet and on fig7_exact's k=16 fat
// tree. real_test.go sets it: only sia can compute them, and sia imports this
// package.
var RealShapes func(tb testing.TB) (k8, k16 *Report)

// plainReport is sizedReport with labels that need no escaping on the wire,
// as real component labels do not: the shape of the decoder's fast path.
func plainReport(n int) *Report {
	rep := sizedReport(n)
	for _, rg := range rep.Audits[0].RGs {
		for c, label := range rg.Components {
			rg.Components[c] = strings.ReplaceAll(label, "->", "_")
		}
	}
	return rep
}

// TestEncodeAllocsBoundedByRGs gates the append-based encoder: a report is
// sized before it is written, so an encode allocates its one buffer and what
// json.Marshal adds around a Marshaler, whatever the number of risk groups
// (the wire structs spent one per risk group; the nested marshalers ≥4).
func TestEncodeAllocsBoundedByRGs(t *testing.T) {
	for _, n := range benchSizes {
		for _, rep := range []*Report{sizedReport(n), plainReport(n)} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := json.Marshal(rep); err != nil {
					t.Fatal(err)
				}
			})
			direct := testing.AllocsPerRun(20, func() {
				if err := EncodeJSON(io.Discard, rep); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 || direct > 2 {
				t.Errorf("%d RGs: %.0f allocs per json.Marshal, %.0f per EncodeJSON, want ≤ 8 and ≤ 2", n, allocs, direct)
			}
		}
	}
}

// distinctLabels counts what a decode must allocate one string each for: the
// interned labels, plus the title and each deployment name.
func distinctLabels(rep *Report) int {
	seen := map[string]bool{}
	n := 1
	for _, a := range rep.Audits {
		n++
		seen[a.Algorithm] = true
		for _, s := range a.Sources {
			seen[s] = true
		}
		for _, rg := range a.RGs {
			for _, c := range rg.Components {
				seen[c] = true
			}
		}
	}
	return n + len(seen)
}

// TestDecodeAllocsBoundedByDistinctLabels gates the two things the decoder
// does about memory. Interning and chunked slices: a decode allocates one
// string per distinct label and a logarithmic number of tables and backing
// arrays, not a dozen objects per risk group. And retention: the decoded
// k=16 report — 767 risk groups naming 82 components 29,000 times — holds
// under 0.8 MB, where one string and one slice per mention held 1.78 MB.
func TestDecodeAllocsBoundedByDistinctLabels(t *testing.T) {
	check := func(name string, rep *Report, perLabel float64) {
		t.Helper()
		blob, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		rgs := 0
		for _, a := range rep.Audits {
			rgs += len(a.RGs)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := DecodeJSON(blob, new(Report)); err != nil {
				t.Fatal(err)
			}
		})
		limit := perLabel*float64(distinctLabels(rep)) + 4*math.Log2(float64(rgs)) + 8
		t.Logf("%s: %d RGs, %d bytes, %d distinct labels: %.0f allocs per decode (limit %.0f)", name, rgs, len(blob), distinctLabels(rep), allocs, limit)
		if allocs > limit {
			t.Errorf("%s: %.0f allocs per decode, want ≤ %.0f", name, allocs, limit)
		}
	}
	for _, n := range benchSizes {
		check(fmt.Sprintf("plain-%d", n), plainReport(n), 1)
		// An escaped label costs its wire spelling, its text and encoding/json's
		// unquoting of it — once per distinct label, not once per mention.
		check(fmt.Sprintf("escaped-%d", n), sizedReport(n), 6)
	}
	k8, k16 := RealShapes(t)
	check("real-k8", k8, 1)
	check("real-k16", k16, 1)

	blob, err := json.Marshal(k16)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	const copies = 8
	held := make([]Report, copies)
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		if err := DecodeJSON(blob, &held[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := float64(after.HeapAlloc-before.HeapAlloc) / copies
	t.Logf("real-k16: %.0f live bytes per decoded report", live)
	if live > 0.8e6 {
		t.Errorf("real-k16: a decoded report holds %.0f bytes, want ≤ 0.8 MB", live)
	}
	runtime.KeepAlive(held)
}

var benchSink any

// benchRungs are the reports both codec benchmarks run over. The synthetic
// sizes carry labels like agg0_1->core3, which the wire escapes (\u003e): they
// stay because they time the slow string path — every label through
// encoding/json's unquoting once, then the intern table by wire spelling. The
// real rungs are what the daemon serves and the decoder's fast path.
func benchRungs(b *testing.B) (names []string, reps []*Report) {
	for _, n := range benchSizes {
		names, reps = append(names, fmt.Sprint(n)), append(reps, sizedReport(n))
	}
	k8, k16 := RealShapes(b)
	return append(names, "real-k8", "real-k16"), append(reps, k8, k16)
}

// BenchmarkReportEncode times both ways to the same bytes: "marshal" is
// json.Marshal(report), which re-validates and compacts what MarshalJSON
// returns; "direct" is EncodeJSON, the entry point the daemon's encode-once
// calls.
func BenchmarkReportEncode(b *testing.B) {
	names, reps := benchRungs(b)
	for i, rep := range reps {
		b.Run(names[i]+"/marshal", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blob, err := json.Marshal(rep)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = blob
			}
		})
		b.Run(names[i]+"/direct", func(b *testing.B) {
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
// "direct" is DecodeJSON — one pass.
func BenchmarkReportDecode(b *testing.B) {
	names, reps := benchRungs(b)
	for i, rep := range reps {
		blob, err := json.Marshal(rep)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(names[i]+"/unmarshal", func(b *testing.B) {
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
		b.Run(names[i]+"/direct", func(b *testing.B) {
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
	for i, inf := range []float64{math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)} {
		bad := sizedReport(1)
		*[]*float64{&bad.Audits[0].RGs[0].Prob, &bad.Audits[0].RGs[0].Importance, &bad.Audits[0].Score, &bad.Audits[0].FailureProb}[i] = inf
		if err := EncodeJSON(io.Discard, bad); err == nil {
			t.Errorf("EncodeJSON accepted %v in probability field %d", inf, i)
		}
		if _, err := json.Marshal(bad); err == nil {
			t.Errorf("json.Marshal accepted %v in probability field %d", inf, i)
		}
	}
	if err := DecodeJSON([]byte(`{"audits":`), new(Report)); err == nil {
		t.Error("DecodeJSON accepted truncated input")
	}
}
