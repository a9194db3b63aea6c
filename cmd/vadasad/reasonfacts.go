package main

// The JSON edges of POST /reason. Facts cross them without becoming boxed Go
// values: loadRows walks a predicate's rows array from the request bytes
// into the engine's row loader, writeReasonResponse appends the derived rows
// from the engine's sorted row view to the response bytes. Both are held to
// what encoding/json did when the handler decoded into and encoded from
// slices of any — same accepted inputs, same values, same error texts, same
// output bytes — by the differential tests beside them.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"unicode/utf8"

	"vadasa"
	"vadasa/internal/datalog"
)

// loadRows walks raw — one predicate's value in the request's facts object,
// already validated as JSON by the envelope decode — and appends each row to
// the loader. null stands for no rows, and a null row for an empty one, as
// they did when the rows were decoded into slices. The errors name the
// predicate and the argument position, never a cell's content: the request
// body is microdata.
func loadRows(l *datalog.Loader, pred string, raw []byte) error {
	i := skipSpace(raw, 0)
	switch raw[i] {
	case 'n':
		return nil
	case '[':
	default:
		return factsShape(raw[i], "[][]interface {}")
	}
	i = skipSpace(raw, i+1)
	for raw[i] != ']' {
		switch raw[i] {
		case 'n':
			i += len("null")
		case '[':
			var err error
			if i, err = loadRow(l, pred, raw, i+1); err != nil {
				l.Discard()
				return err
			}
		default:
			return factsShape(raw[i], "[]interface {}")
		}
		l.EndRow()
		if i = skipSpace(raw, i); raw[i] == ',' {
			i = skipSpace(raw, i+1)
		}
	}
	return nil
}

// loadRow stages the cells of the row whose '[' precedes raw[i] and returns
// the index after its ']'.
func loadRow(l *datalog.Loader, pred string, raw []byte, i int) (int, error) {
	i = skipSpace(raw, i)
	for arg := 1; raw[i] != ']'; arg++ {
		switch c := raw[i]; {
		case c == '"':
			end, plain := scanString(raw, i)
			if plain {
				l.StrBytes(raw[i+1 : end-1])
			} else {
				// Escapes and non-ASCII go through encoding/json's own
				// unquoting, U+FFFD replacement of invalid UTF-8 included.
				var s string
				if err := json.Unmarshal(raw[i:end], &s); err != nil {
					return 0, fmt.Errorf("fact %s: argument %d is not a JSON string", pred, arg)
				}
				l.Str(s)
			}
			i = end
		case c == '-' || '0' <= c && c <= '9':
			end := i + 1
			for isNumberByte(raw[end]) {
				end++
			}
			n, err := strconv.ParseFloat(string(raw[i:end]), 64)
			if err != nil {
				return 0, errors.New("decoding request: json: cannot unmarshal number into Go struct field reasonRequest.facts of type float64")
			}
			l.Num(n)
			i = end
		default:
			return 0, fmt.Errorf("fact %s: argument %d must be a string or number, got %s", pred, arg, goTypeOf(c))
		}
		if i = skipSpace(raw, i); raw[i] == ',' {
			i = skipSpace(raw, i+1)
		}
	}
	return i + 1, nil
}

// factsShape is encoding/json's complaint about a value that is not the
// array the facts object wants at that depth, in its words.
func factsShape(first byte, want string) error {
	kind := "number"
	switch first {
	case '"':
		kind = "string"
	case '{':
		kind = "object"
	case 't', 'f':
		kind = "bool"
	}
	return fmt.Errorf("decoding request: json: cannot unmarshal %s into Go struct field reasonRequest.facts of type %s", kind, want)
}

// goTypeOf names the Go type encoding/json decodes a non-scalar cell to.
func goTypeOf(first byte) string {
	switch first {
	case '[':
		return "[]interface {}"
	case '{':
		return "map[string]interface {}"
	case 'n':
		return "<nil>"
	}
	return "bool"
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// scanString returns the index after the closing quote of the string that
// opens at b[i], and whether its content is the plain bytes in between — no
// escape and nothing outside ASCII.
func scanString(b []byte, i int) (end int, plain bool) {
	plain = true
	for i++; b[i] != '"'; i++ {
		if b[i] == '\\' {
			plain = false
			i++
		} else if b[i] >= utf8.RuneSelf {
			plain = false
		}
	}
	return i + 1, plain
}

// writeReasonResponse writes {"facts":{pred:[row,…],…}, tail…}: the facts of
// each predicate in sorted order, appended row by row from the engine's
// sorted view, followed by the fields of tail (a struct, never empty) as
// encoding/json renders them with HTML escaping off — byte for byte the
// document writeJSON produced from a map of boxed rows.
func (s *server) writeReasonResponse(w http.ResponseWriter, res *vadasa.ReasoningResult, preds []string, tail any) error {
	preds = append([]string(nil), preds...)
	sort.Strings(preds)
	buf := []byte(`{"facts":{`)
	for i, pred := range preds {
		if i > 0 {
			if pred == preds[i-1] {
				continue
			}
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, pred)
		buf = append(buf, ':', '[')
		rows := res.DB().SortedRows(pred)
		for j := 0; j < rows.Len(); j++ {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			row := rows.Row(j)
			for k := 0; k < row.Len(); k++ {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = appendValJSON(buf, row.At(k))
			}
			buf = append(buf, ']')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '}')
	var rest bytes.Buffer
	enc := json.NewEncoder(&rest)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(tail); err != nil {
		return fmt.Errorf("encoding reason response: %w", err)
	}
	buf = append(append(buf, ','), rest.Bytes()[1:]...) // tail's fields join the object
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("encoding 200 response: %w", err)
	}
	return nil
}

// appendValJSON renders a runtime value for the JSON response: strings and
// finite numbers natively, everything JSON has no literal for — labelled
// nulls, sets, ±Inf and NaN — as a string in its source-style spelling.
func appendValJSON(dst []byte, v vadasa.Val) []byte {
	switch v.Kind() {
	case datalog.KStr:
		return appendJSONString(dst, v.StrVal())
	case datalog.KNum:
		if f := v.NumVal(); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return appendJSONFloat(dst, f)
		}
	}
	return appendJSONString(dst, v.String())
}

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
	dst = append(dst, '"')
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
		c, size := utf8.DecodeRuneInString(s[i:])
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
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
