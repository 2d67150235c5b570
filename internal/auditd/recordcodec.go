package auditd

import (
	"fmt"
	"slices"

	"indaas/internal/deps"
	"indaas/internal/jsonscan"
)

// The record wire codec. The body of POST /v1/depdb is decoded by hand in one
// pass of the shared scanner (internal/jsonscan) straight into validated
// deps.Records, and every RecordWire embedded in another request decodes
// through the same record reader, so one piece of code defines what a record
// body is. What it accepts, and what each accepted body means, is what
// json.Decoder with DisallowUnknownFields followed by recordsFromWire made of
// the same bytes — case-folded keys, the last duplicate key winning over what
// the earlier ones left, null a no-op except into a list, an unknown field a
// 400 naming it — and FuzzIngestBody keeps that decode as its oracle. Client
// bodies are appended by hand, byte for byte what json.Marshal writes.

// recordKeys are RecordWire's wire keys in field order: the encoder writes
// them in this order, the decoder's Member answers with the index.
var recordKeys = []string{"kind", "src", "dst", "route", "hw", "type", "dep", "pgm", "deps"}

const (
	rKind = iota
	rSrc
	rDst
	rRoute
	rHW
	rType
	rDep
	rPgm
	rDeps
)

// ingestKeys are IngestRequest's wire keys: Replicated has none.
var ingestKeys = []string{"records"}

const (
	// listChunk caps the strings one backing array of record lists holds,
	// and payloadBlock the records one payload block holds: a record the
	// database keeps live keeps its neighbours in the same chunk and block
	// alive, so neither may grow with the body.
	listChunk    = 256
	payloadBlock = 64
)

// recordDecoder reads records off the shared scanner. Labels are interned
// per body when intern is set (an ingest body names the same machines and
// devices over and over; a lone embedded record does not).
type recordDecoder struct {
	jsonscan.Scanner
	intern bool
	p      payloads
}

// decodeIngest decodes a POST /v1/depdb body into validated records. Every
// error is a 400: a body that does not parse as an ingest request is a "bad
// request body", an invalid record names its index. As with json.Decoder,
// bytes after the request object are not read.
func decodeIngest(body []byte) ([]deps.Record, error) {
	d := recordDecoder{Scanner: jsonscan.Scanner{Data: body, ChunkCap: listChunk}, intern: true, p: payloads{carved: true}}
	recs, err := d.ingest()
	if err != nil && httpStatus(err) != 400 {
		err = badBody(err)
	}
	return recs, err
}

func badBody(err error) error {
	return &statusErr{code: 400, err: fmt.Errorf("bad request body: %w", err)}
}

func (d *recordDecoder) ingest() ([]deps.Record, error) {
	if obj, err := d.Object("an ingest request object"); !obj {
		return nil, err
	}
	var (
		recs    []deps.Record
		invalid error // the first record that does not validate: a parse error outranks it
	)
	// The request has one key, so a second member that is not unknown
	// repeats it.
	for first, seen := true, false; ; first, seen = false, true {
		k, done, err := d.Member(first, ingestKeys)
		switch {
		case err != nil:
			return nil, err
		case done:
			return recs, invalid
		case k < 0:
			return nil, d.UnknownField()
		case seen:
			return d.ingestOver()
		}
		if recs, invalid, err = d.records(); err != nil {
			return nil, err
		}
	}
}

// records reads the records array, building each record as its object
// closes. An element is decoded over a fresh RecordWire: into a slice it
// grows, encoding/json decodes each element over a zero one.
func (d *recordDecoder) records() (recs []deps.Record, invalid, err error) {
	if array, err := d.Opens(); !array {
		return nil, nil, err
	}
	recs = make([]deps.Record, 0, (len(d.Data)-d.Pos)/64+1)
	for first := true; ; first = false {
		more, err := d.Element(first)
		if err != nil {
			return nil, nil, err
		}
		if !more {
			return recs, invalid, nil
		}
		var w RecordWire
		if err := d.record(&w); err != nil {
			return nil, nil, err
		}
		r, err := w.record(&d.p)
		if err != nil && invalid == nil {
			invalid = recordErr(len(recs), err)
		}
		recs = append(recs, r)
	}
}

// ingestOver decodes a body that repeats the "records" key. encoding/json
// decodes each later array over the records the earlier ones left — element
// by element, a null element or field keeping what was there — so every
// record's wire form is needed, valid or not. The body is read again from
// the top into RecordWires, and those are converted.
func (d *recordDecoder) ingestOver() ([]deps.Record, error) {
	d.Pos = 0
	d.Peek() // the '{' ingest opened
	var wires []RecordWire
	for first := true; ; first = false {
		k, done, err := d.Member(first, ingestKeys)
		switch {
		case err != nil:
			return nil, err
		case done:
			return recordsFromWire(wires)
		case k < 0:
			return nil, d.UnknownField()
		}
		if err := jsonscan.Elements(&d.Scanner, &wires, RecordWire{}, d.record); err != nil {
			return nil, err
		}
	}
}

// record decodes one record object over w, as encoding/json decodes into a
// struct: a key overwrites its field, null leaves a field as it was.
func (d *recordDecoder) record(w *RecordWire) error {
	if obj, err := d.Object("a record object"); !obj {
		return err
	}
	for first := true; ; first = false {
		k, done, err := d.Member(first, recordKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case rKind:
			w.Kind, err = d.Text(w.Kind, d.intern)
		case rSrc:
			w.Src, err = d.Text(w.Src, d.intern)
		case rDst:
			w.Dst, err = d.Text(w.Dst, d.intern)
		case rRoute:
			err = d.Strings(&w.Route, d.intern)
		case rHW:
			w.HW, err = d.Text(w.HW, d.intern)
		case rType:
			w.Type, err = d.Text(w.Type, d.intern)
		case rDep:
			w.Dep, err = d.Text(w.Dep, d.intern)
		case rPgm:
			w.Pgm, err = d.Text(w.Pgm, d.intern)
		case rDeps:
			err = d.Strings(&w.Deps, d.intern)
		default:
			return d.UnknownField()
		}
		if err != nil {
			return err
		}
	}
}

// UnmarshalJSON decodes a record embedded in a larger request — a submit's
// or a recommendation's inline records — with the ingest body's record
// reader. It decodes over w, as encoding/json does.
func (w *RecordWire) UnmarshalJSON(data []byte) error {
	d := recordDecoder{Scanner: jsonscan.Scanner{Data: data}}
	if err := d.record(w); err != nil {
		return err
	}
	if d.Peek(); d.Pos < len(d.Data) {
		return d.Expected("nothing after the record")
	}
	return nil
}

// payloads carves the payloads of the records built from one request out of
// shared blocks, a block per kind of at most payloadBlock records.
type payloads struct {
	nets []deps.Network
	hws  []deps.Hardware
	sws  []deps.Software
	// carved says each record's lists were carved for it alone by the
	// decoder and become the record's; otherwise they are the caller's and
	// are copied, so a record never aliases a request.
	carved bool
}

// carve returns the next free payload of a block, starting a block twice the
// size of the last (8 to payloadBlock) when it is full. A full block is left
// to the records pointing into it.
func carve[T any](block *[]T) *T {
	b := *block
	if len(b) == cap(b) {
		b = make([]T, 0, min(payloadBlock, max(8, 2*cap(b))))
	}
	b = b[:len(b)+1]
	*block = b
	return &b[len(b)-1]
}

func (p *payloads) list(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	if p.carved {
		return s
	}
	return slices.Clone(s)
}

// record converts the wire form into a validated deps.Record, its payload
// carved from p.
func (w *RecordWire) record(p *payloads) (deps.Record, error) {
	var r deps.Record
	switch w.Kind {
	case "network":
		n := carve(&p.nets)
		*n = deps.Network{Src: w.Src, Dst: w.Dst, Route: p.list(w.Route)}
		r = deps.Record{Kind: deps.KindNetwork, Network: n}
	case "hardware":
		h := carve(&p.hws)
		*h = deps.Hardware{HW: w.HW, Type: w.Type, Dep: w.Dep}
		r = deps.Record{Kind: deps.KindHardware, Hardware: h}
	case "software":
		s := carve(&p.sws)
		*s = deps.Software{Pgm: w.Pgm, HW: w.HW, Dep: p.list(w.Deps)}
		r = deps.Record{Kind: deps.KindSoftware, Software: s}
	default:
		return r, fmt.Errorf("auditd: unknown record kind %q", w.Kind)
	}
	return r, r.Validate()
}

// recordErr is the 400 for the i-th record of a request.
func recordErr(i int, err error) error {
	return &statusErr{code: 400, err: fmt.Errorf("record %d: %w", i, err)}
}

// appendIngest appends the body of POST /v1/depdb carrying records: the
// bytes json.Marshal(&IngestRequest{Records: records}) writes.
func appendIngest(b []byte, records []RecordWire) []byte {
	if records == nil {
		return append(b, `{"records":null}`...)
	}
	b = append(b, `{"records":[`...)
	for i := range records {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRecord(b, &records[i])
	}
	return append(b, ']', '}')
}

// ingestSize is appendIngest's output for labels that need no escaping, so
// the body is one buffer of about its own size.
func ingestSize(records []RecordWire) int {
	n := len(`{"records":[]}`)
	for i := range records {
		w := &records[i]
		n += len(`{"kind":""},`) + len(w.Kind) + textSize(w.Src) + textSize(w.Dst) + listSize(w.Route) +
			textSize(w.HW) + textSize(w.Type) + textSize(w.Dep) + textSize(w.Pgm) + listSize(w.Deps)
	}
	return n
}

// textSize is a string member's size from above: `,"type":""` and the text.
func textSize(s string) int {
	if s == "" {
		return 0
	}
	return len(`,"type":""`) + len(s)
}

// listSize is a list member's size from above: `,"route":[]` and the
// quoted, comma-separated texts.
func listSize(list []string) int {
	if len(list) == 0 {
		return 0
	}
	n := len(`,"route":[]`)
	for _, s := range list {
		n += len(s) + 3
	}
	return n
}

// appendRecord writes one record as RecordWire's tags have it: the kind
// always, every other field only when it is not empty.
func appendRecord(b []byte, w *RecordWire) []byte {
	b = jsonscan.AppendString(append(b, `{"kind":`...), w.Kind)
	b = appendText(b, rSrc, w.Src)
	b = appendText(b, rDst, w.Dst)
	b = appendList(b, rRoute, w.Route)
	b = appendText(b, rHW, w.HW)
	b = appendText(b, rType, w.Type)
	b = appendText(b, rDep, w.Dep)
	b = appendText(b, rPgm, w.Pgm)
	b = appendList(b, rDeps, w.Deps)
	return append(b, '}')
}

func appendKey(b []byte, k int) []byte {
	b = append(b, ',', '"')
	b = append(b, recordKeys[k]...)
	return append(b, '"', ':')
}

func appendText(b []byte, k int, s string) []byte {
	if s == "" {
		return b
	}
	return jsonscan.AppendString(appendKey(b, k), s)
}

func appendList(b []byte, k int, list []string) []byte {
	if len(list) == 0 {
		return b
	}
	b = append(appendKey(b, k), '[')
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonscan.AppendString(b, s)
	}
	return append(b, ']')
}
