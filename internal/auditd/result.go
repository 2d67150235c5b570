package auditd

import (
	"bytes"
	"encoding/json"
	"errors"

	"indaas/internal/report"
)

// EncodedResult is a finished result in the one form the daemon retains: its
// kind and its compact wire JSON with the title cut out. The memory tier,
// the disk envelope, peer fetches and every response share that immutable
// slice; a job's own title is spliced back in front when the bytes are
// written (title is the first field of all three payload kinds), so serving
// a hit runs no codec.
type EncodedResult struct {
	kind *jobKind
	// obj is the payload as one newline-terminated compact JSON object with
	// no title: `{"audits":[…]}\n`. Never written after construction.
	obj []byte
	// computedOn is the database fingerprint this process computed the
	// result against (Workload.DBFingerprint); empty for a result read from
	// disk or relayed by a peer. Set before the result is shared.
	computedOn string
}

// newEncodedResult adopts line — one compact payload object and its
// newline, in a buffer the caller gives up — as a result of the given kind.
// A leading title field is cut without copying: the byte before the next
// field is overwritten with the opening brace.
func newEncodedResult(kind *jobKind, line []byte) (*EncodedResult, error) {
	const titleKey = `{"title":"`
	if len(line) < 3 || line[0] != '{' || !bytes.HasSuffix(line, []byte("}\n")) {
		return nil, errors.New("auditd: result payload is not one compact JSON object")
	}
	if bytes.HasPrefix(line, []byte(titleKey)) {
		i := len(titleKey)
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' {
				i++
			}
			i++
		}
		// line[i] closes the title string; a comma follows unless the title
		// was the only field.
		if i >= len(line)-2 || (line[i+1] != ',' && line[i+1] != '}') {
			return nil, errors.New("auditd: result payload has a malformed title")
		}
		if line[i+1] == ',' {
			i++
		}
		line = line[i:]
		line[0] = '{'
	}
	return &EncodedResult{kind: kind, obj: line}, nil
}

// encodeResult is the one encode a computed result ever gets; reports go
// through their codec's explicit entry point.
func encodeResult(kind *jobKind, res any) (*EncodedResult, error) {
	var buf bytes.Buffer
	var err error
	if rep, ok := res.(*report.Report); ok {
		err = report.EncodeJSON(&buf, rep)
	} else {
		err = json.NewEncoder(&buf).Encode(res)
	}
	if err != nil {
		return nil, err
	}
	return newEncodedResult(kind, buf.Bytes())
}

// EncodedResultFromPayload adopts a payload as the report and cache routes
// serve it — a cluster peer's answer — sniffing its kind by shape and
// cutting its title, without decoding it. raw must not be used afterwards.
func EncodedResultFromPayload(raw []byte) (*EncodedResult, error) {
	kind := kindByName(resultKind(raw))
	if kind == nil {
		return nil, errors.New("auditd: result payload is not a JSON object")
	}
	if !bytes.HasSuffix(raw, []byte("\n")) {
		raw = append(raw, '\n')
	}
	return newEncodedResult(kind, raw)
}

// head returns the bytes that, written in front of obj[1:], make the payload
// carry title exactly as encoding/json renders the struct: reports always
// have a title field, the other kinds omit an empty one.
func (e *EncodedResult) head(title string) []byte {
	if title == "" && !e.kind.titled {
		return []byte("{")
	}
	quoted, _ := json.Marshal(title) // a string always encodes
	head := append([]byte(`{"title":`), quoted...)
	if e.obj[1] != '}' {
		head = append(head, ',')
	}
	return head
}

// envelopeHead opens the disk-store record of a result of the given kind.
func envelopeHead(kind *jobKind) string { return `{"kind":"` + kind.name + `","payload":` }

// envelope renders the disk-store record, byte-identical to the
// {"kind":…,"payload":…} object earlier versions marshaled: the stored
// payload carries the empty title a freshly computed result has.
func (e *EncodedResult) envelope() []byte {
	pre, head := envelopeHead(e.kind), e.head("")
	blob := make([]byte, 0, len(pre)+len(head)+len(e.obj)-1)
	blob = append(append(blob, pre...), head...)
	blob = append(blob, e.obj[1:len(e.obj)-1]...)
	return append(blob, '}')
}

// parseEnvelope is envelope's inverse, by slicing: the payload is adopted in
// place inside blob (which the caller gives up), the envelope's closing
// brace becoming the payload's newline; a stored title is dropped.
func parseEnvelope(blob []byte) (*EncodedResult, error) {
	for _, k := range jobKinds {
		if pre := envelopeHead(k); bytes.HasPrefix(blob, []byte(pre)) && blob[len(blob)-1] == '}' {
			blob[len(blob)-1] = '\n'
			return newEncodedResult(k, blob[len(pre):])
		}
	}
	return nil, errors.New("auditd: persisted record is not a result envelope of a known kind")
}

// Decode materialises the result as its kind's struct — *report.Report,
// *RecommendResponse or *PrivateAuditResponse — under title.
func (e *EncodedResult) Decode(title string) (any, error) {
	res, err := e.kind.decodeResult(e.obj, title)
	if err != nil {
		return nil, err
	}
	return res, nil
}
