package main

// The JSON emitters of the replies that are written without encoding/json:
// /reason's facts and the whole /anonymize body. Each is held to the bytes
// encoding/json writes with HTML escaping off, as writeJSON sets it.

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// appendJSONFloat is encoding/json's float64 encoding: shortest 'f' form,
// switching to an exponent below 1e-6 and from 1e21, with the exponent's
// leading zero dropped.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString is encoding/json's string encoding with HTML escaping
// off, as writeJSON sets it: the short escapes for quote, backslash and the
// five named controls, \u00XX for the other controls, \ufffd for invalid
// UTF-8, and U+2028/U+2029 escaped for JSONP's sake.
func appendJSONString(dst []byte, s string) []byte {
	dst, _ = appendJSONEscaped(append(dst, '"'), s, false)
	return append(dst, '"')
}

// appendJSONEscaped appends what appendJSONString puts between the quotes
// for s. With more set, s is a prefix of the text: the escaping stops before
// a UTF-8 sequence cut off at s's end, and n is how much of s it consumed.
func appendJSONEscaped[T string | []byte](dst []byte, s T, more bool) (_ []byte, n int) {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r := string(s[i:min(i+utf8.UTFMax, len(s))])
		if more && !utf8.FullRuneInString(r) {
			return append(dst, s[start:i]...), i
		}
		c, size := utf8.DecodeRuneInString(r)
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...), len(s)
}

// appendJSONList appends a JSON array of n elements, element i by elem, or
// null when n is 0 — encoding/json's rendering of the nil slices the
// anonymization cycle leaves empty.
func appendJSONList(dst []byte, n int, elem func(dst []byte, i int) []byte) []byte {
	if n == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, i)
	}
	return append(dst, ']')
}

// jsonStringWriter writes the text written to it into w as the inside of a
// JSON string: however the text is split into writes, w receives what
// appendJSONString puts between the quotes for all of it once Close has
// run. A write that ends inside a UTF-8 sequence holds those bytes back
// until the next write completes or breaks the sequence.
type jsonStringWriter struct {
	w   io.Writer
	buf []byte // one write's escaped bytes, reused
	cut []byte // the bytes of a UTF-8 sequence held back, at most 3
}

func (x *jsonStringWriter) Write(p []byte) (int, error) {
	n, used := len(p), 0
	buf := x.buf[:0]
	for len(x.cut) > 0 && len(p) > 0 {
		x.cut, p = append(x.cut, p[0]), p[1:]
		buf, used = appendJSONEscaped(buf, x.cut, true)
		x.cut = x.cut[:copy(x.cut, x.cut[used:])]
	}
	buf, used = appendJSONEscaped(buf, p, true)
	x.cut = append(x.cut, p[used:]...)
	x.buf = buf
	return n, x.flush()
}

// Close writes out held-back bytes, which no write completed: a sequence
// cut off at the end of the text, escaped as invalid UTF-8.
func (x *jsonStringWriter) Close() error {
	x.buf, _ = appendJSONEscaped(x.buf[:0], x.cut, false)
	x.cut = x.cut[:0]
	return x.flush()
}

func (x *jsonStringWriter) flush() error {
	if len(x.buf) == 0 {
		return nil
	}
	_, err := x.w.Write(x.buf)
	return err
}
