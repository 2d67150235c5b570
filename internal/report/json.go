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
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"
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
	b = appendString(appendKey(b, '{', reportKeys[kTitle]), r.Title)
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
	b = appendString(appendKey(b, '{', auditKeys[kDeployment]), a.Deployment)
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
	b = appendString(appendKey(b, ',', auditKeys[kAlgorithm]), a.Algorithm)
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
		b = appendString(b, s)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on: < > &
// and control bytes as \u00XX (short forms for \b \f \n \r \t), U+2028/9
// escaped, invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainByte[c] && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// plainByte marks the bytes a JSON string carries as themselves and the
// decoder's fast path accepts: ASCII from space up, less the quote and the
// backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return
}()

// DecodeJSON decodes a report from its wire JSON, overwriting r whole and
// leaving it untouched on error. It is the explicit decode entry point:
// json.Unmarshal(data, report) validates data, finds the Unmarshaler and
// lands here to validate it again.
//
// One forward pass validates and decodes; what it accepts and what each
// accepted input means is what encoding/json made of the same bytes (case-
// folded keys, unknown keys skipped, the last duplicate key winning over what
// the earlier ones left, null a no-op except into a slice). The report does
// not alias data. Its component, source and algorithm labels are interned —
// one string per distinct label — and its Sources and Components slices are
// carved, capacity-capped, from backing arrays they share: appending to one
// copies it, and holding one holds its neighbours.
func DecodeJSON(data []byte, r *Report) error {
	d := decoder{data: data}
	var rep Report
	if err := d.document(&rep); err != nil {
		return err
	}
	// Arrays grow by doubling while they decode; a decoded report is often
	// held for long (by a client, a cache, a memo), so the two that make up
	// most of it keep no more capacity than they hold.
	rep.Audits = exact(rep.Audits)
	for i := range rep.Audits {
		rep.Audits[i].RGs = exact(rep.Audits[i].RGs)
	}
	*r = rep
	return nil
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

// maxDepth is encoding/json's nesting limit. A document nested deeper is an
// error there and so here, which also bounds the recursion of skip.
const maxDepth = 10000

type decoder struct {
	data   []byte
	pos    int
	labels labelTable
	// chunk is the backing array Sources and Components are being carved
	// from; its length is the part already handed out.
	chunk []string
}

// expected is the syntax or type error at the current offset.
func (d *decoder) expected(what string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("report: decode: unexpected end of input at offset %d, expected %s", d.pos, what)
	}
	return fmt.Errorf("report: decode: invalid character %q at offset %d, expected %s", d.data[d.pos], d.pos, what)
}

// peek skips whitespace and returns the byte it stops at, unconsumed: 0 at
// the end of input (a NUL in the input is as unexpected everywhere).
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *decoder) document(rep *Report) error {
	var err error
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		err = d.report(rep)
	default:
		err = d.expected("a report object")
	}
	if err != nil {
		return err
	}
	if d.peek(); d.pos < len(d.data) {
		return d.expected("nothing after the report")
	}
	return nil
}

// literal consumes word: null, true or false.
func (d *decoder) literal(word string) error {
	if end := d.pos + len(word); end > len(d.data) || string(d.data[d.pos:end]) != word {
		return d.expected(word)
	}
	d.pos += len(word)
	return nil
}

// member reads on to the next member's value in the object being walked —
// first says its '{' is the byte at d.pos — and answers with the key's index
// in keys, -1 for a key not among them; done means the object closed instead.
func (d *decoder) member(first bool, keys []string) (k int, done bool, err error) {
	if first {
		d.pos++
	}
	c := d.peek()
	switch {
	case c == '}':
		d.pos++
		return 0, true, nil
	case first:
	case c == ',':
		d.pos++
		c = d.peek()
	default:
		return 0, false, d.expected("',' or '}'")
	}
	if c != '"' {
		return 0, false, d.expected("an object key")
	}
	lit, simple, err := d.str()
	if err != nil {
		return 0, false, err
	}
	if d.peek() != ':' {
		return 0, false, d.expected("':'")
	}
	d.pos++
	k = -1
	if len(keys) > 0 {
		key := lit[1 : len(lit)-1]
		if !simple {
			s, err := unquote(lit)
			if err != nil {
				return 0, false, err
			}
			key = []byte(s)
		}
		k = lookupKey(key, keys)
	}
	return k, false, nil
}

// lookupKey matches as encoding/json does: exactly, or failing that under
// Unicode simple case folding.
func lookupKey(key []byte, keys []string) int {
	for k, name := range keys {
		if string(key) == name {
			return k
		}
	}
	for k, name := range keys {
		if foldEqual(key, name) {
			return k
		}
	}
	return -1
}

// foldEqual reports whether key and the lower-case ASCII name share
// encoding/json's folded form: every rune mapped to the smallest of its
// SimpleFold orbit, which takes 'ſ' to 'S' and the Kelvin sign to 'K'.
func foldEqual(key []byte, name string) bool {
	for _, want := range []byte(name) {
		if len(key) == 0 {
			return false
		}
		r, size := rune(key[0]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key)
			for {
				next := unicode.SimpleFold(r)
				if next <= r {
					r = next
					break
				}
				r = next
			}
		}
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		if r != rune(want) {
			return false
		}
		key = key[size:]
	}
	return len(key) == 0
}

// element reads on to the next element of the array being walked — first
// says its '[' is the byte at d.pos — or past its ']' (more is false).
func (d *decoder) element(first bool) (more bool, err error) {
	if first {
		d.pos++
	}
	c := d.peek()
	switch {
	case c == ']':
		d.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		return true, nil
	}
	return false, d.expected("',' or ']'")
}

// str scans the string literal d.pos opens and validates it. lit is the
// literal, quotes included, aliasing the input; simple says the bytes between
// the quotes are the string — no escape, nothing outside ASCII.
func (d *decoder) str() (lit []byte, simple bool, err error) {
	data, start := d.data, d.pos
	simple = true
	for i := start + 1; ; i++ {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			d.pos = len(data)
			return nil, false, d.expected("a closing quote")
		}
		d.pos = i
		switch c := data[i]; {
		case c == '"':
			d.pos++
			return data[start : i+1], simple, nil
		case c >= utf8.RuneSelf:
			simple = false
		case c != '\\':
			return nil, false, d.expected("no control character in a string")
		default:
			simple = false
			i++
			if i < len(data) && data[i] == 'u' {
				for end := i + 4; i < end; {
					i++
					if d.pos = i; i >= len(data) || !isHex(data[i]) {
						return nil, false, d.expected("four hex digits")
					}
				}
			} else if d.pos = i; i >= len(data) || !isEscape(data[i]) {
				return nil, false, d.expected("an escape character")
			}
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isEscape(c byte) bool {
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	}
	return false
}

// unquote is the one place the codec defers to encoding/json: a string
// literal with an escape or a byte outside ASCII, so surrogate pairs and
// invalid UTF-8 → U+FFFD stay its rules.
func unquote(lit []byte) (string, error) {
	var s string
	err := json.Unmarshal(lit, &s)
	return s, err
}

// number scans the number literal at d.pos, which holds '-' or a digit.
// integer says it has neither fraction nor exponent.
func (d *decoder) number() (lit []byte, integer bool, err error) {
	data, start := d.data, d.pos
	digits := func() bool {
		from := d.pos
		for d.pos < len(data) && '0' <= data[d.pos] && data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > from
	}
	if data[d.pos] == '-' {
		d.pos++
	}
	if d.pos < len(data) && data[d.pos] == '0' {
		d.pos++
	} else if !digits() {
		return nil, false, d.expected("a digit")
	}
	integer = true
	if d.pos < len(data) && data[d.pos] == '.' {
		integer = false
		if d.pos++; !digits() {
			return nil, false, d.expected("a digit")
		}
	}
	if d.pos < len(data) && data[d.pos]|0x20 == 'e' {
		integer = false
		if d.pos++; d.pos < len(data) && (data[d.pos] == '+' || data[d.pos] == '-') {
			d.pos++
		}
		if !digits() {
			return nil, false, d.expected("a digit")
		}
	}
	return data[start:d.pos], integer, nil
}

func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// skip validates and discards one value. depth counts the containers open
// around it.
func (d *decoder) skip(depth int) error {
	c := d.peek()
	switch {
	case c == '"':
		_, _, err := d.str()
		return err
	case isNumberStart(c):
		_, _, err := d.number()
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c != '{' && c != '[':
		return d.expected("a value")
	case depth >= maxDepth:
		return d.expected("at most 10000 levels of nesting")
	}
	for first := true; ; first = false {
		var done bool
		var err error
		if c == '{' {
			_, done, err = d.member(first, nil)
		} else {
			done, err = d.element(first)
			done = !done
		}
		if done || err != nil {
			return err
		}
		if err := d.skip(depth + 1); err != nil {
			return err
		}
	}
}

// The value readers below take what a duplicate key or a reused slice element
// left in the field: null leaves a scalar as it was, as in encoding/json.

// text reads a string; interned strings are shared across the report.
func (d *decoder) text(old string, intern bool) (string, error) {
	switch d.peek() {
	case 'n':
		return old, d.literal("null")
	case '"':
		lit, simple, err := d.str()
		switch {
		case err != nil:
			return old, err
		case intern:
			return d.labels.intern(lit, simple)
		case simple:
			return string(lit[1 : len(lit)-1]), nil
		}
		return unquote(lit)
	}
	return old, d.expected("a string")
}

// numeral reads the literal of a number-typed value, nil for null.
func (d *decoder) numeral(what string) (lit []byte, integer bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, false, d.literal("null")
	case isNumberStart(c):
		return d.number()
	}
	return nil, false, d.expected(what)
}

// integer reads a whole number of the given width.
func (d *decoder) integer(old int64, bits int) (int64, error) {
	lit, integer, err := d.numeral("an integer")
	if lit == nil {
		return old, err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if !integer || err != nil {
		return old, fmt.Errorf("report: decode: number %s at offset %d is not an integer its field can hold", lit, d.pos-len(lit))
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
		return 0, fmt.Errorf("report: decode: number %s at offset %d is out of range", lit, d.pos-len(lit))
	}
	return f, nil
}

func (d *decoder) boolean(old bool) (bool, error) {
	switch d.peek() {
	case 'n':
		return old, d.literal("null")
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	}
	return old, d.expected("a boolean")
}

// opens reads the start of a slice-typed value: an array (true, its '[' not
// yet consumed) or null.
func (d *decoder) opens() (array bool, err error) {
	switch d.peek() {
	case 'n':
		return false, d.literal("null")
	case '[':
		return true, nil
	}
	return false, d.expected("an array")
}

// elements reads a slice-typed value: null is the nil slice, an array is
// decoded element by element through each. Like encoding/json it decodes into
// the slice a duplicate key left: over its elements one by one, and past its
// length over whatever its capacity still holds — so growing keeps every
// element up to the old capacity, and the new room starts out as fresh (its
// probabilities unknown), never as zeros.
func elements[T any](d *decoder, dst *[]T, fresh T, each func(*T) error) error {
	array, err := d.opens()
	if !array {
		*dst = nil
		return err
	}
	s, n := *dst, 0
	for first := true; ; first = false {
		more, err := d.element(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == cap(s) {
			g := make([]T, max(8, 2*cap(s)))
			for i := copy(g, s[:cap(s)]); i < len(g); i++ {
				g[i] = fresh
			}
			s = g[:len(s)]
		}
		if n >= len(s) {
			s = s[:n+1]
		}
		if err := each(&s[n]); err != nil {
			return err
		}
		n++
	}
	if *dst = s[:n]; n == 0 {
		*dst = []T{}
	}
	return nil
}

func (d *decoder) report(r *Report) error {
	for first := true; ; first = false {
		k, done, err := d.member(first, reportKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case kTitle:
			r.Title, err = d.text(r.Title, false)
		case kAudits:
			err = elements(d, &r.Audits, DeploymentAudit{Score: math.NaN(), FailureProb: math.NaN()}, d.audit)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) audit(a *DeploymentAudit) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.expected("an audit object")
	}
	for first := true; ; first = false {
		k, done, err := d.member(first, auditKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case kDeployment:
			a.Deployment, err = d.text(a.Deployment, false)
		case kSources:
			err = d.strings(&a.Sources)
		case kExpected:
			a.Expected, err = d.intField(a.Expected)
		case kRGs:
			err = elements(d, &a.RGs, RGEntry{Prob: math.NaN(), Importance: math.NaN()}, d.rg)
		case kUnexpected:
			a.Unexpected, err = d.intField(a.Unexpected)
		case kScore:
			a.Score, err = d.prob()
		case kScoreTopN:
			a.ScoreTopN, err = d.intField(a.ScoreTopN)
		case kFailureProb:
			a.FailureProb, err = d.prob()
		case kAlgorithm:
			a.Algorithm, err = d.text(a.Algorithm, true)
		case kElapsedNS:
			var ns int64
			ns, err = d.integer(a.Elapsed.Nanoseconds(), 64)
			a.Elapsed = time.Duration(ns)
		case kTruncated:
			a.Truncated, err = d.boolean(a.Truncated)
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) rg(e *RGEntry) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.expected("a risk-group object")
	}
	for first := true; ; first = false {
		k, done, err := d.member(first, rgKeys)
		if done || err != nil {
			return err
		}
		switch k {
		case kComponents:
			err = d.strings(&e.Components)
		case kSize:
			e.Size, err = d.intField(e.Size)
		case kProb:
			e.Prob, err = d.prob()
		case kImportance:
			e.Importance, err = d.prob()
		default:
			err = d.skip(5)
		}
		if err != nil {
			return err
		}
	}
}

// strings reads a list of labels onto the tail of the shared chunk and carves
// it off with its capacity capped, so a consumer's append copies the list
// rather than writing into its neighbour.
func (d *decoder) strings(dst *[]string) error {
	array, err := d.opens()
	if !array {
		*dst = nil
		return err
	}
	// What a duplicate key left goes down first, up to its capacity: the list
	// is decoded over it, as encoding/json decodes into a slice it is handed.
	lo := len(d.chunk)
	for _, s := range (*dst)[:cap(*dst)] {
		lo = d.room(lo)
		d.chunk = append(d.chunk, s)
	}
	n := 0
	for first := true; ; first = false {
		more, err := d.element(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if lo+n == len(d.chunk) {
			lo = d.room(lo)
			d.chunk = append(d.chunk, "")
		}
		if d.chunk[lo+n], err = d.text(d.chunk[lo+n], true); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		d.chunk = d.chunk[:lo]
		*dst = []string{}
		return nil
	}
	*dst = d.chunk[lo : lo+n : len(d.chunk)]
	return nil
}

// room makes space for one more string on the chunk. A full chunk is left to
// the lists carved from it: the list being built, chunk[lo:], moves to the
// head of a new one sized by the input still to read (a label with its quotes
// and comma is seldom under 16 bytes long, and never under 3). It returns
// the list's new start.
func (d *decoder) room(lo int) int {
	if len(d.chunk) < cap(d.chunk) {
		return lo
	}
	list := d.chunk[lo:]
	d.chunk = make([]string, len(list), 8+2*len(list)+(len(d.data)-d.pos)/16)
	copy(d.chunk, list)
	return 0
}

// labelTable interns the labels of one decode: open addressing, keyed by the
// bytes between a literal's quotes. It lives and dies with the DecodeJSON
// call, so there is no global cache, no lock and nothing a report keeps alive
// but its own strings.
type labelTable struct {
	seed  maphash.Seed // random per table, so crafted labels cannot be made to collide
	slots []labelSlot
	used  int
}

// labelSlot holds one label: wire as the input spells it, text what that
// decodes to — the same string unless wire has escapes. An empty wire marks a
// free slot; the empty label is never stored.
type labelSlot struct{ wire, text string }

func (t *labelTable) intern(lit []byte, simple bool) (string, error) {
	wire := lit[1 : len(lit)-1]
	if len(wire) == 0 {
		return "", nil
	}
	if 4*t.used >= 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(t.seed, wire) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.wire == string(wire) {
			return s.text, nil
		}
		if s.wire != "" {
			continue
		}
		s.wire = string(wire)
		s.text = s.wire
		t.used++
		if !simple {
			var err error
			if s.text, err = unquote(lit); err != nil {
				return "", err
			}
		}
		return s.text, nil
	}
}

func (t *labelTable) grow() {
	old := t.slots
	if old == nil {
		t.seed = maphash.MakeSeed()
	}
	t.slots = make([]labelSlot, max(64, 4*len(old)))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.wire == "" {
			continue
		}
		i := maphash.String(t.seed, s.wire) & mask
		for t.slots[i].wire != "" {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
