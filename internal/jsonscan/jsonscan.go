// Package jsonscan is the tree's one JSON grammar check: a scan over
// RFC 8259 as encoding/json reads it — invalid UTF-8 in a string is
// accepted, a control byte is not, at most MaxDepth arrays and objects are
// open at once — so Valid accepts exactly what json.Valid does. A Scanner
// reports where a value ends and can hand each member of an object, or
// element of an array, to a hook, so a decoder finds the parts it wants
// without unmarshaling the rest.
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

// Value scans one JSON value. Nested arrays and objects are walked in one
// loop, the closing byte of each container open inside the value on a
// stack, so a deep value costs no call per level.
func (s *Scanner) Value() bool {
	var buf [64]byte
	open := buf[:0]
	b, i := s.B, s.I
	for {
		// b[i] starts a value.
		if i == len(b) {
			return false
		}
		switch c := b[i]; c {
		case '{', '[':
			if s.Depth+len(open) >= MaxDepth {
				return false
			}
			closing := c + 2 // ']' and '}' follow their openers by two in ASCII
			if i = SkipSpace(b, i+1); i < len(b) && b[i] == closing {
				i++
				break
			}
			open = append(open, closing)
			if closing == '}' {
				if _, i = key(b, i); i < 0 {
					return false
				}
			}
			continue
		case '"':
			i = str(b, i)
		case 't':
			i = literal(b, i, "true")
		case 'f':
			i = literal(b, i, "false")
		case 'n':
			i = literal(b, i, "null")
		default:
			i = number(b, i)
		}
		if i < 0 {
			return false
		}
		// A value ends at b[i]: close the containers it ends, then go on to
		// the next element, or end the walk.
		for {
			if len(open) == 0 {
				s.I = i
				return true
			}
			if i = SkipSpace(b, i); i == len(b) {
				return false
			}
			closing := open[len(open)-1]
			if b[i] == closing {
				i, open = i+1, open[:len(open)-1]
				continue
			}
			if b[i] != ',' {
				return false
			}
			if i = SkipSpace(b, i+1); closing == '}' {
				if _, i = key(b, i); i < 0 {
					return false
				}
			}
			break
		}
	}
}

// Object scans the object opening at B[I], handing each member to member
// with the quoted key, the offset the key starts at and the scan at the
// member's value, which member must scan.
func (s *Scanner) Object(member func(key []byte, from int) bool) bool {
	if s.I, s.Depth = SkipSpace(s.B, s.I+1), s.Depth+1; s.Depth > MaxDepth {
		return false
	}
	for more := !s.At('}'); more; {
		from := s.I
		end, at := key(s.B, from)
		if at < 0 {
			return false
		}
		if s.I = at; !member(s.B[from:end], from) {
			return false
		}
		if s.I = SkipSpace(s.B, s.I); s.At(',') {
			s.I = SkipSpace(s.B, s.I+1)
		} else {
			more = false
		}
	}
	if !s.At('}') {
		return false
	}
	s.I, s.Depth = s.I+1, s.Depth-1
	return true
}

// Array scans the array opening at B[I], handing each element to elem with
// the scan at the element, which elem must scan.
func (s *Scanner) Array(elem func() bool) bool {
	if s.I, s.Depth = SkipSpace(s.B, s.I+1), s.Depth+1; s.Depth > MaxDepth {
		return false
	}
	for more := !s.At(']'); more; {
		if !elem() {
			return false
		}
		if s.I = SkipSpace(s.B, s.I); s.At(',') {
			s.I = SkipSpace(s.B, s.I+1)
		} else {
			more = false
		}
	}
	if !s.At(']') {
		return false
	}
	s.I, s.Depth = s.I+1, s.Depth-1
	return true
}

// key scans an object member's key and colon from b[i]. It returns the
// index just past the key and the index of the member's value, at < 0 when
// they are not well formed.
func key(b []byte, i int) (end, at int) {
	if i == len(b) || b[i] != '"' {
		return 0, -1
	}
	if end = str(b, i); end < 0 {
		return 0, -1
	}
	if i = SkipSpace(b, end); i == len(b) || b[i] != ':' {
		return 0, -1
	}
	return end, SkipSpace(b, i+1)
}

// str returns the index just past the string that opens at b[i], or -1 when
// it is not well formed.
func str(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < ' ':
			return -1
		case c == '\\':
			if i++; i < len(b) && strings.IndexByte(`"\/bfnrt`, b[i]) >= 0 {
				continue
			}
			if len(b)-i < 5 || b[i] != 'u' || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
				return -1
			}
			i += 4
		}
	}
	return -1
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
	if i == len(b) || b[i] != '"' {
		return 0, false, false
	}
	if end = str(b, i); end < 0 {
		return 0, false, false
	}
	body := b[i+1 : end-1]
	return end, true, bytes.IndexByte(body, '\\') < 0 && utf8.Valid(body)
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

// number returns the index just past the number that starts at b[i], or -1
// when none does.
func number(b []byte, i int) int {
	ok := true
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, ok = digits(b, i); !ok {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			return -1
		}
	}
	return i
}

// literal returns the index just past lit when b[i:] starts with it, or -1.
func literal(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// SkipSpace returns the index of the first byte at or after b[i] that is not
// JSON whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
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
