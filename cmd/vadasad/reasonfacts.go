package main

// The JSON edges of POST /reason. Facts cross them without becoming boxed Go
// values: decodeReasonRequest validates the body in one scan and leaves each
// predicate's rows as a slice of it, loadRows walks those rows into the
// engine's row loader, writeReasonResponse appends the derived rows from the
// engine's sorted row view to the response bytes. All three are held to
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
	"strings"
	"unicode/utf8"

	"vadasa"
	"vadasa/internal/datalog"
)

// maxJSONDepth is encoding/json's nesting limit: a document that opens more
// arrays and objects than this at once is refused.
const maxJSONDepth = 10000

// decodeReasonRequest decodes a POST /reason body. One scan checks it
// against the grammar encoding/json accepts and finds the top-level members
// encoding/json would bind to facts (keys equal to "facts" under case
// folding). Those holding an object or null merge in body order as into a
// map field — an object adds its predicates, a later predicate wins, null
// clears them all — and each predicate's rows stay a slice of body. The rest
// of the document, a few KB, is the envelope json.Unmarshal decodes, so
// folded, duplicate, unknown and mistyped keys, a facts member of another
// type included, stay encoding/json's business. A body the scan refuses is
// refused in encoding/json's words.
func decodeReasonRequest(body []byte) (*reasonRequest, error) {
	s := factScan{b: body}
	if !s.document() {
		err := json.Unmarshal(body, new(reasonRequest))
		if err == nil {
			err = errors.New("json: the request scan and encoding/json disagree")
		}
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	envelope := body // not an object: encoding/json refuses it or finds no program
	if s.object {
		envelope = append(append([]byte{'{'}, bytes.Join(s.kept, []byte{','})...), '}')
	}
	req := new(reasonRequest)
	if err := json.Unmarshal(envelope, req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	req.Facts = s.facts
	return req, nil
}

// factScan is decodeReasonRequest's scan, a recursive descent over RFC 8259
// as encoding/json reads it: invalid UTF-8 in a string is accepted, a
// control byte is not, at most maxJSONDepth containers are open at once and
// nothing but whitespace follows the value. Each method scans from b[i] and
// reports whether what it found is well formed.
type factScan struct {
	b     []byte
	i     int
	depth int

	object bool                       // the document is an object
	kept   [][]byte                   // its members bound for the envelope, key through value
	facts  map[string]json.RawMessage //conftaint:source raw fact rows: request microdata
}

func (s *factScan) document() bool {
	s.i = skipSpace(s.b, 0)
	if s.object = s.at('{'); s.object {
		if !s.members(s.topMember) {
			return false
		}
	} else if !s.value() {
		return false
	}
	return skipSpace(s.b, s.i) == len(s.b)
}

func (s *factScan) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// topMember scans the value of the top-level member whose key (quoted)
// starts at b[from].
func (s *factScan) topMember(key []byte, from int) bool {
	if strings.EqualFold(jsonKey(key), "facts") {
		switch {
		case s.at('{'):
			if s.facts == nil {
				s.facts = make(map[string]json.RawMessage)
			}
			return s.members(s.predicate)
		case s.at('n'):
			s.facts = nil
			return s.literal("null")
		}
	}
	if !s.value() {
		return false
	}
	s.kept = append(s.kept, s.b[from:s.i])
	return true
}

// predicate scans one member of a facts object: a predicate and its rows.
func (s *factScan) predicate(key []byte, _ int) bool {
	from := s.i
	if !s.value() {
		return false
	}
	s.facts[jsonKey(key)] = s.b[from:s.i]
	return true
}

func (s *factScan) anyMember([]byte, int) bool { return s.value() }

func (s *factScan) value() bool {
	if s.i == len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		return s.str()
	case '{':
		return s.members(s.anyMember)
	case '[':
		return s.container(']', s.value)
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.number()
}

// members scans an object, handing each member to member with the scan at
// its value: the quoted key and the offset it starts at.
func (s *factScan) members(member func(key []byte, from int) bool) bool {
	return s.container('}', func() bool {
		from := s.i
		if !s.at('"') || !s.str() {
			return false
		}
		key := s.b[from:s.i]
		if s.i = skipSpace(s.b, s.i); !s.at(':') {
			return false
		}
		s.i = skipSpace(s.b, s.i+1)
		return member(key, from)
	})
}

// container scans the array or object opening at b[i], each of its
// comma-separated elements with elem.
func (s *factScan) container(closing byte, elem func() bool) bool {
	if s.i, s.depth = skipSpace(s.b, s.i+1), s.depth+1; s.depth > maxJSONDepth {
		return false
	}
	for more := !s.at(closing); more; {
		if !elem() {
			return false
		}
		if s.i = skipSpace(s.b, s.i); s.at(',') {
			s.i = skipSpace(s.b, s.i+1)
		} else {
			more = false
		}
	}
	if !s.at(closing) {
		return false
	}
	s.i, s.depth = s.i+1, s.depth-1
	return true
}

func (s *factScan) str() bool {
	b := s.b
	for i := s.i + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
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

func (s *factScan) number() bool {
	b, i, ok := s.b, s.i, true
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
	s.i = i
	return true
}

func (s *factScan) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
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

// jsonKey is a well-formed quoted key as encoding/json unquotes it.
func jsonKey(quoted []byte) string {
	if _, plain := scanString(quoted, 0); plain {
		return string(quoted[1 : len(quoted)-1])
	}
	var k string
	_ = json.Unmarshal(quoted, &k) // cannot fail: the scan checked the string
	return k
}

// loadRows walks raw — one predicate's value in the request's facts object,
// already validated by decodeReasonRequest's scan — and appends each row to
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
