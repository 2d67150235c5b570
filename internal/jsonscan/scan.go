// Package jsonscan is the one JSON scanner under the repository's
// hand-written codecs: the audit report codec (internal/report) and the
// dependency record wire codec (internal/auditd). Each codec walks its own
// shape with a Scanner — one forward pass that validates and decodes at once
// — and what the Scanner accepts, and what each accepted input means, is what
// encoding/json made of the same bytes: case-folded keys, the last duplicate
// key winning over what the earlier ones left, null a no-op except into a
// slice, escapes and invalid UTF-8 unquoted by encoding/json's rules.
//
// Strings a codec asks to intern are allocated once per distinct label per
// Scanner, and string lists are carved, capacity-capped, from backing arrays
// they share: appending to one copies it, and holding one holds its
// neighbours in the same chunk.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"unicode"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit. A document nested deeper is an
// error there and so here, which also bounds the recursion of Skip.
const MaxDepth = 10000

// Scanner reads one JSON document held in Data. Pos is the offset of the
// next unread byte; errors name it.
type Scanner struct {
	Data []byte
	Pos  int
	// ChunkCap bounds how many strings one backing array of Strings holds,
	// so a list kept for long keeps at most that many neighbours alive; a
	// list longer than that gets an array of its own. 0 sizes chunks by the
	// input still to read.
	ChunkCap int

	labels labelTable
	// chunk is the backing array lists are being carved from; its length is
	// the part already handed out.
	chunk []string
	// key is the literal, quotes included, of the key Member read last.
	key []byte
}

// Expected is the syntax or type error at the current offset.
func (s *Scanner) Expected(what string) error {
	if s.Pos >= len(s.Data) {
		return fmt.Errorf("unexpected end of input at offset %d, expected %s", s.Pos, what)
	}
	return fmt.Errorf("invalid character %q at offset %d, expected %s", s.Data[s.Pos], s.Pos, what)
}

// UnknownField is the error for the key Member read last, named as
// encoding/json's DisallowUnknownFields names it.
func (s *Scanner) UnknownField() error {
	key, err := Unquote(s.key)
	if err != nil {
		return err
	}
	return fmt.Errorf("json: unknown field %q", key)
}

// Peek skips whitespace and returns the byte it stops at, unconsumed: 0 at
// the end of input (a NUL in the input is as unexpected everywhere).
func (s *Scanner) Peek() byte {
	for ; s.Pos < len(s.Data); s.Pos++ {
		if c := s.Data[s.Pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// Literal consumes word: null, true or false.
func (s *Scanner) Literal(word string) error {
	if end := s.Pos + len(word); end > len(s.Data) || string(s.Data[s.Pos:end]) != word {
		return s.Expected(word)
	}
	s.Pos += len(word)
	return nil
}

// Object reads the start of an object-typed value: an object (true, its '{'
// not yet consumed, ready for Member) or null.
func (s *Scanner) Object(what string) (object bool, err error) {
	switch s.Peek() {
	case 'n':
		return false, s.Literal("null")
	case '{':
		return true, nil
	}
	return false, s.Expected(what)
}

// Member reads on to the next member's value in the object being walked —
// first says its '{' is the byte at Pos — and answers with the key's index in
// keys, -1 for a key not among them; done means the object closed instead.
func (s *Scanner) Member(first bool, keys []string) (k int, done bool, err error) {
	if first {
		s.Pos++
	}
	c := s.Peek()
	switch {
	case c == '}':
		s.Pos++
		return 0, true, nil
	case first:
	case c == ',':
		s.Pos++
		c = s.Peek()
	default:
		return 0, false, s.Expected("',' or '}'")
	}
	if c != '"' {
		return 0, false, s.Expected("an object key")
	}
	lit, simple, err := s.Str()
	if err != nil {
		return 0, false, err
	}
	if s.Peek() != ':' {
		return 0, false, s.Expected("':'")
	}
	s.Pos++
	s.key = lit
	k = -1
	if len(keys) > 0 {
		key := lit[1 : len(lit)-1]
		if !simple {
			u, err := Unquote(lit)
			if err != nil {
				return 0, false, err
			}
			key = []byte(u)
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

// Element reads on to the next element of the array being walked — first
// says its '[' is the byte at Pos — or past its ']' (more is false).
func (s *Scanner) Element(first bool) (more bool, err error) {
	if first {
		s.Pos++
	}
	c := s.Peek()
	switch {
	case c == ']':
		s.Pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.Pos++
		return true, nil
	}
	return false, s.Expected("',' or ']'")
}

// Str scans the string literal Pos opens and validates it. lit is the
// literal, quotes included, aliasing the input; simple says the bytes between
// the quotes are the string — no escape, nothing outside ASCII.
func (s *Scanner) Str() (lit []byte, simple bool, err error) {
	data, start := s.Data, s.Pos
	simple = true
	for i := start + 1; ; i++ {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			s.Pos = len(data)
			return nil, false, s.Expected("a closing quote")
		}
		s.Pos = i
		switch c := data[i]; {
		case c == '"':
			s.Pos++
			return data[start : i+1], simple, nil
		case c >= utf8.RuneSelf:
			simple = false
		case c != '\\':
			return nil, false, s.Expected("no control character in a string")
		default:
			simple = false
			i++
			if i < len(data) && data[i] == 'u' {
				for end := i + 4; i < end; {
					i++
					if s.Pos = i; i >= len(data) || !isHex(data[i]) {
						return nil, false, s.Expected("four hex digits")
					}
				}
			} else if s.Pos = i; i >= len(data) || !isEscape(data[i]) {
				return nil, false, s.Expected("an escape character")
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

// Unquote is the one place the scanner defers to encoding/json: a string
// literal with an escape or a byte outside ASCII, so surrogate pairs and
// invalid UTF-8 → U+FFFD stay its rules.
func Unquote(lit []byte) (string, error) {
	var s string
	err := json.Unmarshal(lit, &s)
	return s, err
}

// Number scans the number literal at Pos, which holds '-' or a digit.
// integer says it has neither fraction nor exponent.
func (s *Scanner) Number() (lit []byte, integer bool, err error) {
	data, start := s.Data, s.Pos
	digits := func() bool {
		from := s.Pos
		for s.Pos < len(data) && '0' <= data[s.Pos] && data[s.Pos] <= '9' {
			s.Pos++
		}
		return s.Pos > from
	}
	if data[s.Pos] == '-' {
		s.Pos++
	}
	if s.Pos < len(data) && data[s.Pos] == '0' {
		s.Pos++
	} else if !digits() {
		return nil, false, s.Expected("a digit")
	}
	integer = true
	if s.Pos < len(data) && data[s.Pos] == '.' {
		integer = false
		if s.Pos++; !digits() {
			return nil, false, s.Expected("a digit")
		}
	}
	if s.Pos < len(data) && data[s.Pos]|0x20 == 'e' {
		integer = false
		if s.Pos++; s.Pos < len(data) && (data[s.Pos] == '+' || data[s.Pos] == '-') {
			s.Pos++
		}
		if !digits() {
			return nil, false, s.Expected("a digit")
		}
	}
	return data[start:s.Pos], integer, nil
}

// IsNumberStart reports whether c opens a number literal.
func IsNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// Skip validates and discards one value. depth counts the containers open
// around it.
func (s *Scanner) Skip(depth int) error {
	c := s.Peek()
	switch {
	case c == '"':
		_, _, err := s.Str()
		return err
	case IsNumberStart(c):
		_, _, err := s.Number()
		return err
	case c == 'n':
		return s.Literal("null")
	case c == 't':
		return s.Literal("true")
	case c == 'f':
		return s.Literal("false")
	case c != '{' && c != '[':
		return s.Expected("a value")
	case depth >= MaxDepth:
		return s.Expected("at most 10000 levels of nesting")
	}
	for first := true; ; first = false {
		var done bool
		var err error
		if c == '{' {
			_, done, err = s.Member(first, nil)
		} else {
			done, err = s.Element(first)
			done = !done
		}
		if done || err != nil {
			return err
		}
		if err := s.Skip(depth + 1); err != nil {
			return err
		}
	}
}

// The value readers below take what a duplicate key or a reused slice element
// left in the field: null leaves a scalar as it was, as in encoding/json.

// Text reads a string; interned strings are shared across the document.
func (s *Scanner) Text(old string, intern bool) (string, error) {
	switch s.Peek() {
	case 'n':
		return old, s.Literal("null")
	case '"':
		lit, simple, err := s.Str()
		switch {
		case err != nil:
			return old, err
		case intern:
			return s.labels.intern(lit, simple)
		case simple:
			return string(lit[1 : len(lit)-1]), nil
		}
		return Unquote(lit)
	}
	return old, s.Expected("a string")
}

// Opens reads the start of a slice-typed value: an array (true, its '[' not
// yet consumed) or null.
func (s *Scanner) Opens() (array bool, err error) {
	switch s.Peek() {
	case 'n':
		return false, s.Literal("null")
	case '[':
		return true, nil
	}
	return false, s.Expected("an array")
}

// Elements reads a slice-typed value: null is the nil slice, an array is
// decoded element by element through each. Like encoding/json it decodes into
// the slice a duplicate key left: over its elements one by one, and past its
// length over whatever its capacity still holds — so growing keeps every
// element up to the old capacity, and the new room starts out as fresh, never
// as a zero value the codec does not mean.
func Elements[T any](s *Scanner, dst *[]T, fresh T, each func(*T) error) error {
	array, err := s.Opens()
	if !array {
		*dst = nil
		return err
	}
	v, n := *dst, 0
	for first := true; ; first = false {
		more, err := s.Element(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == cap(v) {
			g := make([]T, max(8, 2*cap(v)))
			for i := copy(g, v[:cap(v)]); i < len(g); i++ {
				g[i] = fresh
			}
			v = g[:len(v)]
		}
		if n >= len(v) {
			v = v[:n+1]
		}
		if err := each(&v[n]); err != nil {
			return err
		}
		n++
	}
	if *dst = v[:n]; n == 0 {
		*dst = []T{}
	}
	return nil
}

// Strings reads a list of strings, interned when intern says so, onto the
// tail of the shared chunk and carves it off with its capacity capped, so a
// consumer's append copies the list rather than writing into its neighbour.
func (s *Scanner) Strings(dst *[]string, intern bool) error {
	array, err := s.Opens()
	if !array {
		*dst = nil
		return err
	}
	// What a duplicate key left goes down first, up to its capacity: the list
	// is decoded over it, as encoding/json decodes into a slice it is handed.
	lo := len(s.chunk)
	for _, v := range (*dst)[:cap(*dst)] {
		lo = s.room(lo)
		s.chunk = append(s.chunk, v)
	}
	n := 0
	for first := true; ; first = false {
		more, err := s.Element(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if lo+n == len(s.chunk) {
			lo = s.room(lo)
			s.chunk = append(s.chunk, "")
		}
		if s.chunk[lo+n], err = s.Text(s.chunk[lo+n], intern); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		s.chunk = s.chunk[:lo]
		*dst = []string{}
		return nil
	}
	*dst = s.chunk[lo : lo+n : len(s.chunk)]
	if s.ChunkCap > 0 && cap(s.chunk) > s.ChunkCap {
		s.chunk = nil // grown past the cap for this list alone
	}
	return nil
}

// room makes space for one more string on the chunk. A full chunk is left to
// the lists carved from it: the list being built, chunk[lo:], moves to the
// head of a new one sized by the input still to read (a label with its quotes
// and comma is seldom under 16 bytes long, and never under 3), capped by
// ChunkCap. It returns the list's new start.
func (s *Scanner) room(lo int) int {
	if len(s.chunk) < cap(s.chunk) {
		return lo
	}
	list := s.chunk[lo:]
	size := 8 + 2*len(list) + (len(s.Data)-s.Pos)/16
	if s.ChunkCap > 0 {
		size = min(size, max(s.ChunkCap, 2*len(list)))
	}
	s.chunk = make([]string, len(list), size)
	copy(s.chunk, list)
	return 0
}

// labelTable interns the labels of one document: open addressing, keyed by
// the bytes between a literal's quotes. It lives and dies with its Scanner,
// so there is no global cache, no lock and nothing a decoded value keeps
// alive but its own strings.
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
			if s.text, err = Unquote(lit); err != nil {
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

const hexDigits = "0123456789abcdef"

// AppendString quotes s as encoding/json does with HTML escaping on: < > &
// and control bytes as \u00XX (short forms for \b \f \n \r \t), U+2028/9
// escaped, invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
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
// scanner's fast path accepts: ASCII from space up, less the quote and the
// backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return
}()
