// Package jsonscan is the tree's one JSON grammar check: a recursive descent
// over RFC 8259 as encoding/json reads it — invalid UTF-8 in a string is
// accepted, a control byte is not, at most MaxDepth arrays and objects are
// open at once — so Valid accepts exactly what json.Valid does. A Scanner
// reports where a value ends and can hand each member of an object to a
// hook, so a decoder finds the parts it wants without unmarshaling the rest.
//
// It also owns the tree's one rule for a string's value: a string whose
// bytes between the quotes hold no backslash and are valid UTF-8 is those
// bytes (String calls it plain); any other string is what encoding/json
// unquotes it to (Unquote), escapes resolved and each byte of invalid UTF-8
// replaced by U+FFFD.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: a document that opens more
// arrays and objects than this at once is refused.
const MaxDepth = 10000

// Valid reports whether b is one well-formed JSON document.
func Valid(b []byte) bool {
	s := Scanner{B: b, I: SkipSpace(b, 0)}
	return s.Value() && SkipSpace(b, s.I) == len(b)
}

// Scanner scans B from the offset I. Each method scans what starts at B[I]
// (no whitespace before it), reports whether it is well formed and, when it
// is, leaves I just past it. Depth counts the containers open around B[I]:
// a scan that starts inside a document starts at the depth it sits at.
type Scanner struct {
	B     []byte
	I     int
	Depth int
}

// At reports whether B[I] is c.
func (s *Scanner) At(c byte) bool { return s.I < len(s.B) && s.B[s.I] == c }

// Value scans one JSON value.
func (s *Scanner) Value() bool {
	if s.I == len(s.B) {
		return false
	}
	switch s.B[s.I] {
	case '"':
		return s.str()
	case '{', '[':
		return s.Container(nil)
	case 't':
		return s.Literal("true")
	case 'f':
		return s.Literal("false")
	case 'n':
		return s.Literal("null")
	}
	return s.number()
}

// Container scans the array or object opening at B[I]. Each member of an
// object goes to member, when not nil, with the quoted key, the offset the
// key starts at and the scan at the member's value, which member must scan;
// every other value is scanned with Value.
func (s *Scanner) Container(member func(key []byte, from int) bool) bool {
	closing := byte(']')
	if s.B[s.I] == '{' {
		closing = '}'
	}
	if s.I, s.Depth = SkipSpace(s.B, s.I+1), s.Depth+1; s.Depth > MaxDepth {
		return false
	}
	for more := !s.At(closing); more; {
		if closing == ']' && !s.Value() || closing == '}' && !s.member(member) {
			return false
		}
		if s.I = SkipSpace(s.B, s.I); s.At(',') {
			s.I = SkipSpace(s.B, s.I+1)
		} else {
			more = false
		}
	}
	if !s.At(closing) {
		return false
	}
	s.I, s.Depth = s.I+1, s.Depth-1
	return true
}

// member scans one member of an object: key, colon and value.
func (s *Scanner) member(hook func(key []byte, from int) bool) bool {
	from := s.I
	if !s.At('"') || !s.str() {
		return false
	}
	key := s.B[from:s.I]
	if s.I = SkipSpace(s.B, s.I); !s.At(':') {
		return false
	}
	s.I = SkipSpace(s.B, s.I+1)
	if hook == nil {
		return s.Value()
	}
	return hook(key, from)
}

// str scans a string.
func (s *Scanner) str() bool {
	b := s.B
	for i := s.I + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.I = i + 1
			return true
		case c < ' ':
			return false
		case c == '\\':
			if i++; i < len(b) && strings.IndexByte(`"\/bfnrt`, b[i]) >= 0 {
				continue
			}
			if len(b)-i < 5 || b[i] != 'u' || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
				return false
			}
			i += 4
		}
	}
	return false
}

// String scans the string that opens at b[i] and returns the index just past
// its closing quote, whether it is well formed, and whether it is plain: its
// value is the bytes between its quotes.
func String(b []byte, i int) (end int, ok, plain bool) {
	// Printable ASCII with no escape, nearly every string, in one pass.
	j := i + 1
	for j < len(b) && b[j] != '"' && ' ' <= b[j] && b[j] < utf8.RuneSelf && b[j] != '\\' {
		j++
	}
	if i < len(b) && b[i] == '"' && j < len(b) && b[j] == '"' {
		return j + 1, true, true
	}
	return stringRest(b, i)
}

// stringRest is String for what its first pass stops at: an escape, a
// control byte, a byte outside ASCII, or no string at all.
func stringRest(b []byte, i int) (end int, ok, plain bool) {
	s := Scanner{B: b, I: i}
	if !s.At('"') || !s.str() {
		return 0, false, false
	}
	body := b[i+1 : s.I-1]
	return s.I, true, bytes.IndexByte(body, '\\') < 0 && utf8.Valid(body)
}

// Unquote returns the value of the string that opens at b[i] and the index
// just past it, or false when the string is not well formed.
func Unquote(b []byte, i int) (v string, end int, ok bool) {
	end, ok, plain := String(b, i)
	switch {
	case plain:
		v = string(b[i+1 : end-1])
	case ok:
		var u string // on the heap (Unmarshal takes its address): only this branch pays
		ok = json.Unmarshal(b[i:end], &u) == nil
		v = u
	}
	return v, end, ok
}

func (s *Scanner) number() bool {
	b, i, ok := s.B, s.I, true
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, ok = digits(b, i); !ok {
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			return false
		}
	}
	s.I = i
	return true
}

// Literal scans the bytes of lit.
func (s *Scanner) Literal(lit string) bool {
	if len(s.B)-s.I < len(lit) || string(s.B[s.I:s.I+len(lit)]) != lit {
		return false
	}
	s.I += len(lit)
	return true
}

// SkipSpace returns the index of the first byte at or after b[i] that is not
// JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// digits returns the end of the run of digits starting at b[i], and whether
// the run is not empty.
func digits(b []byte, i int) (int, bool) {
	j := i
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j, j > i
}

func isHex(c byte) bool { return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }
