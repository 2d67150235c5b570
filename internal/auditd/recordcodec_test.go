package auditd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"indaas/internal/agentsim"
	"indaas/internal/deps"
)

// churnBody is the body of one 256-record churn push as a bench churn
// workload sends it: the records an agentsim fleet's churn stream produces,
// NIC flaps, software upgrades and flow re-observations mixed.
func churnBody(tb testing.TB, size int) []byte {
	tb.Helper()
	fleet, err := agentsim.New(agentsim.Config{K: 8, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	stream, err := fleet.ChurnStream(1, fleet.Servers()[:4]...)
	if err != nil {
		tb.Fatal(err)
	}
	var recs []deps.Record
	for len(recs) < size {
		b, err := stream.Next()
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, b.Records...)
	}
	blob, err := json.Marshal(&IngestRequest{Records: WireRecords(recs)})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// oracleRecord is RecordWire without its codec: encoding/json reads it by
// the struct tags, as it read every record before the codec was written.
type oracleRecord struct {
	Kind  string   `json:"kind"`
	Src   string   `json:"src,omitempty"`
	Dst   string   `json:"dst,omitempty"`
	Route []string `json:"route,omitempty"`
	HW    string   `json:"hw,omitempty"`
	Type  string   `json:"type,omitempty"`
	Dep   string   `json:"dep,omitempty"`
	Pgm   string   `json:"pgm,omitempty"`
	Deps  []string `json:"deps,omitempty"`
}

// oracleIngest is the ingest decode the codec replaced: json.Decoder with
// unknown fields refused, then recordsFromWire, then the empty-ingest check.
func oracleIngest(body []byte) ([]deps.Record, error) {
	var req struct {
		Records []oracleRecord `json:"records"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	wires := make([]RecordWire, len(req.Records))
	for i, o := range req.Records {
		wires[i] = RecordWire(o)
	}
	if len(wires) == 0 {
		return nil, errNoRecords
	}
	return recordsFromWire(wires)
}

var errNoRecords = &statusErr{code: 400, err: errors.New("ingest has no records")}

// codecIngest is the handler's decode with the same empty-ingest check.
func codecIngest(body []byte) ([]deps.Record, error) {
	recs, err := decodeIngest(body)
	if err == nil && len(recs) == 0 {
		return nil, errNoRecords
	}
	return recs, err
}

// checkIngestBody is FuzzIngestBody's property on one body.
func checkIngestBody(t *testing.T, body []byte) {
	got, gotErr := codecIngest(body)
	want, wantErr := oracleIngest(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		if httpStatus(gotErr) != 400 {
			t.Fatalf("body %q refused with %d: %v", body, httpStatus(gotErr), gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: codec decoded\n%v\nencoding/json\n%v", body, got, want)
	}
	wire := WireRecords(got)
	checkIngestEncode(t, wire)
	if again, err := codecIngest(appendIngest(nil, wire)); err != nil || !reflect.DeepEqual(again, got) {
		t.Fatalf("body %q: the re-encoded records decode to %v, %v", body, again, err)
	}
}

// checkIngestEncode pins the encoder to json.Marshal's bytes.
func checkIngestEncode(t *testing.T, wire []RecordWire) {
	want, err := json.Marshal(&IngestRequest{Records: wire})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendIngest(make([]byte, 0, ingestSize(wire)), wire); !bytes.Equal(got, want) {
		t.Fatalf("appendIngest wrote\n%s\njson.Marshal\n%s", got, want)
	}
}

// FuzzIngestBody is the record codec's contract: on any body the handler's
// decode accepts exactly what json.Decoder with DisallowUnknownFields and
// recordsFromWire accepted, into the same records, and those records
// re-encode to json.Marshal's bytes and decode back to themselves. Field
// values taken from the raw input pin the encoder on bytes no decode
// produces (invalid UTF-8, control bytes, U+2028).
func FuzzIngestBody(f *testing.F) {
	records := append(fixtureRecords(f), deltaRecords()...)
	for _, w := range records {
		blob, err := json.Marshal(&IngestRequest{Records: []RecordWire{w}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	all, err := json.Marshal(&IngestRequest{Records: records})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	long := make([]string, listChunk+44) // a list longer than a chunk, then more lists
	for i := range long {
		long[i] = fmt.Sprintf("pkg%d", i)
	}
	wide, err := json.Marshal(&IngestRequest{Records: append([]RecordWire{{Kind: "software", Pgm: "p", HW: "h", Deps: long}}, records...)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide)
	churn := churnBody(f, 32)
	f.Add(churn)
	for _, n := range []int{0, 1, 12, 13, len(churn) / 2, len(churn) - 2, len(churn) - 1} {
		f.Add(churn[:n]) // truncations
	}
	for _, s := range []string{
		// Case-folded keys, the Kelvin sign and the long s among them.
		`{"RECORDS":[{"Kind":"hardware","HW":"s1","TYPE":"NIC","dEp":"m"}]}`,
		`{"records":[{"kind":"network","ſrc":"s","dst":"d","route":["r"]}]}`,
		`{"records":[{"\u212aind":"hardware","hw":"s1","type":"NIC","dep":"m"}]}`,
		`{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m","kind":"software","pgm":"p"}]}`,
		// Duplicate keys: the last wins over what the earlier left.
		`{"records":[{"kind":"network","src":"a","dst":"b","route":["x","y"],"route":[null]}]}`,
		`{"records":[{"kind":"network","src":"a","dst":"b","route":["x","y"],"route":[null],"route":[null,null]}]}`,
		`{"records":[{"kind":"bogus","src":"a","dst":"b","route":["x"]}],"records":[{"kind":"network"}]}`,
		`{"records":[{"kind":"hardware","hw":"h","type":"t","dep":"d"}],"records":[null]}`,
		`{"records":[{"kind":"hardware","hw":"h","type":"t","dep":"d"}],"records":null}`,
		`{"records":null,"records":[{"kind":"hardware","hw":"h","type":"t","dep":"d"}]}`,
		`{"records":[{"kind":"network","src":"a","dst":"b","hw":"h","type":"t","dep":"d"}],"records":[{"kind":"hardware"}]}`,
		// Nulls.
		`null`,
		`{"records":null}`,
		`{"records":[null]}`,
		`{"records":[{"kind":"software","pgm":"p","hw":null,"hw":"h","deps":null}]}`,
		`{"records":[{"kind":"software","pgm":"p","hw":"h","deps":["a",null]}]}`,
		// Escapes and invalid UTF-8.
		`{"records":[{"kind":"hardware","hw":"s1","type":"N\/C","dep":"\ud83d\ude00\u2028<&>\""}]}`,
		`{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"a\u001fb"}]}`,
		"{\"records\":[{\"kind\":\"hardware\",\"hw\":\"s\xff1\",\"type\":\"NIC\",\"dep\":\"\xed\xa0\x80\"}]}",
		`{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"\ud800"}]}`,
		// Unknown fields, at the top, in a record, and the excluded one.
		`{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m"}],"extra":1}`,
		`{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m","model":"x"}]}`,
		`{"Replicated":true,"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m"}]}`,
		// Wrong types, empty lists, trailing bytes and whitespace.
		`{"records":[{"kind":"hardware","hw":1,"type":"NIC","dep":"m"}]}`,
		`{"records":[{"kind":"network","src":"a","dst":"b","route":"x"}]}`,
		`{"records":[{"kind":"network","src":"a","dst":"b","route":[1]}]}`,
		`{"records":{}}`,
		`{"records":[]}`,
		`{"records":[{"kind":"network","src":"a","dst":"b","route":[]}]}`,
		`{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m"}]} trailing`,
		` {"records" : [ {"kind" : "hardware" , "hw":"s1","type":"NIC","dep":"m"} ] } `,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkIngestBody(t, body)
		s := string(body)
		checkIngestEncode(t, []RecordWire{{Kind: s, Src: s, Route: []string{s, ""}, Deps: []string{s}}})
	})
}

// TestIngestDecodeAllocs gates what the codec allocates for a 256-record
// churn push: one string per distinct label and a few tables, chunks and
// payload blocks — not a string and a slice per mention, as encoding/json's
// 2,434 allocations were.
func TestIngestDecodeAllocs(t *testing.T) {
	body := churnBody(t, 256)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeIngest(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d-byte churn body: %.0f allocs per decode", len(body), allocs)
	if allocs > 675 {
		t.Errorf("%.0f allocs per 256-record decode, want ≤ 675", allocs)
	}
}

// TestIngestEncodeIsOneBuffer checks that ingestSize bounds the churn body
// from above, so Client.Ingest appends it into one allocation.
func TestIngestEncodeIsOneBuffer(t *testing.T) {
	recs, err := decodeIngest(churnBody(t, 256))
	if err != nil {
		t.Fatal(err)
	}
	wire := WireRecords(recs)
	if n, size := len(appendIngest(nil, wire)), ingestSize(wire); n > size || size > n+n/8 {
		t.Errorf("a %d-byte body is sized %d, want at least its length and within 1/8 over", n, size)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		benchSinkBytes = appendIngest(make([]byte, 0, ingestSize(wire)), wire)
	}); allocs != 1 {
		t.Errorf("encoding a churn push allocates %.0f times, want 1", allocs)
	}
}

// TestIngestBodyErrors drives refused bodies through the handler: every one
// is a 400, a parse error is a "bad request body" naming what it met, an
// unknown field is named wherever it is — in an ingest body or a record
// embedded in a submit — and an invalid record is named by its index.
func TestIngestBodyErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	cases := []struct{ path, body, want string }{
		{"/v1/depdb", `{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m"}],"extra":1}`, `bad request body: json: unknown field \"extra\"`},
		{"/v1/depdb", `{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m","model":"x"}]}`, `unknown field \"model\"`},
		{"/v1/audits", `{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m","model":"x"}],"deployments":[{"name":"a","servers":["s1"]}]}`, `unknown field \"model\"`},
		{"/v1/depdb", `{"records":[{"kind":"hardware","hw":"s1"`, `bad request body: unexpected end of input`},
		{"/v1/depdb", `{"records":[]}`, `ingest has no records`},
		{"/v1/depdb", `{"records":[{"kind":"hardware","hw":"s1","type":"NIC","dep":"m"},{"kind":"disk"}]}`, `record 1: auditd: unknown record kind`},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
		if w.Code != 400 || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("POST %s %s: %d %s, want 400 with %s", tc.path, tc.body, w.Code, w.Body.String(), tc.want)
		}
	}
}

// BenchmarkIngestBody times both ends of a 256-record churn push: the
// handler's decode of the body into validated records, and Client.Ingest's
// encode of the wire records into the body.
func BenchmarkIngestBody(b *testing.B) {
	body := churnBody(b, 256)
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeIngest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	recs, err := decodeIngest(body)
	if err != nil {
		b.Fatal(err)
	}
	wire := WireRecords(recs)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSinkBytes = appendIngest(make([]byte, 0, ingestSize(wire)), wire)
		}
	})
}

var benchSinkBytes []byte
