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

	"vadasa"
	"vadasa/internal/datalog"
	"vadasa/internal/jsonscan"
)

// maxJSONDepth is encoding/json's nesting limit, which the scan keeps.
const maxJSONDepth = jsonscan.MaxDepth

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
	req.Facts, req.sizes = s.facts, s.sizes
	return req, nil
}

// factScan is decodeReasonRequest's scan: jsonscan's grammar with two
// member hooks, one for the document's top-level members and one for the
// members of a facts object.
type factScan struct {
	b []byte // the body document scans
	jsonscan.Scanner

	object bool                       // the document is an object
	kept   [][]byte                   // its members bound for the envelope, key through value
	facts  map[string]json.RawMessage //conftaint:source raw fact rows: request microdata
	sizes  map[string]factSize        // what each of facts' values holds
}

// factSize is what one predicate's value holds: its elements, each a row
// (or what the loader refuses), and the elements of those that are arrays.
type factSize struct{ rows, cells int }

func (s *factScan) document() bool {
	s.Scanner = jsonscan.Scanner{B: s.b, I: jsonscan.SkipSpace(s.b, 0)}
	if s.object = s.At('{'); s.object {
		if !s.Object(s.topMember) {
			return false
		}
	} else if !s.Value() {
		return false
	}
	return jsonscan.SkipSpace(s.B, s.I) == len(s.B)
}

// topMember scans the value of the top-level member whose key (quoted)
// starts at B[from].
func (s *factScan) topMember(key []byte, from int) bool {
	if strings.EqualFold(jsonKey(key), "facts") {
		switch {
		case s.At('{'):
			if s.facts == nil {
				s.facts = make(map[string]json.RawMessage)
				s.sizes = make(map[string]factSize)
			}
			return s.Object(s.predicate)
		case s.At('n'):
			s.facts, s.sizes = nil, nil
			return s.Value() // null, or not well formed
		}
	}
	if !s.Value() {
		return false
	}
	s.kept = append(s.kept, s.B[from:s.I])
	return true
}

// predicate scans one member of a facts object: a predicate and its rows,
// counted on the way for the load to size its relation by.
func (s *factScan) predicate(key []byte, _ int) bool {
	from := s.I
	var n factSize
	ok := false
	if s.At('[') {
		ok = s.Array(func() bool {
			n.rows++
			if !s.At('[') {
				return s.Value()
			}
			return s.Array(func() bool {
				n.cells++
				return s.Value()
			})
		})
	} else {
		ok = s.Value()
	}
	if !ok {
		return false
	}
	pred := jsonKey(key)
	s.facts[pred], s.sizes[pred] = s.B[from:s.I], n
	return true
}

// jsonKey is a well-formed quoted key as encoding/json unquotes it.
func jsonKey(quoted []byte) string {
	k, _, _ := jsonscan.Unquote(quoted, 0) // cannot fail: the scan checked the string
	return k
}

// loadRows walks raw — one predicate's value in the request's facts object,
// already validated by decodeReasonRequest's scan — and appends each row to
// the loader. null stands for no rows, and a null row for an empty one, as
// they did when the rows were decoded into slices. The errors name the
// predicate and the argument position, never a cell's content: the request
// body is microdata.
func loadRows(l *datalog.Loader, pred string, raw []byte) error {
	i := jsonscan.SkipSpace(raw, 0)
	switch raw[i] {
	case 'n':
		return nil
	case '[':
	default:
		return factsShape(raw[i], "[][]interface {}")
	}
	i = jsonscan.SkipSpace(raw, i+1)
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
		if i = jsonscan.SkipSpace(raw, i); raw[i] == ',' {
			i = jsonscan.SkipSpace(raw, i+1)
		}
	}
	return nil
}

// loadRow stages the cells of the row whose '[' precedes raw[i] and returns
// the index after its ']'.
func loadRow(l *datalog.Loader, pred string, raw []byte, i int) (int, error) {
	i = jsonscan.SkipSpace(raw, i)
	for arg := 1; raw[i] != ']'; arg++ {
		switch c := raw[i]; {
		case c == '"':
			end, _, plain := jsonscan.String(raw, i)
			if plain {
				l.StrBytes(raw[i+1 : end-1])
			} else {
				s, _, ok := jsonscan.Unquote(raw, i)
				if !ok {
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
		if i = jsonscan.SkipSpace(raw, i); raw[i] == ',' {
			i = jsonscan.SkipSpace(raw, i+1)
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

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
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
	seen := make(map[uint32][2]int) // id → where buf holds its first rendering
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
				buf = appendCellJSON(buf, row, k, seen)
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

// appendCellJSON appends the row's k-th value as appendValJSON renders it:
// an integer below 2^53 in magnitude, which encoding/json spells as its
// digits, by integer formatting; any other value once per reply, and by
// copying that first rendering (seen: id → its span of dst) after that.
func appendCellJSON(dst []byte, row datalog.Row, k int, seen map[uint32][2]int) []byte {
	v := row.At(k)
	if v.Kind() == datalog.KNum {
		if f := v.NumVal(); f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			return strconv.AppendInt(dst, int64(f), 10)
		}
	}
	id := row.ID(k)
	if sp, ok := seen[id]; ok {
		return append(dst, dst[sp[0]:sp[1]]...)
	}
	from := len(dst)
	dst = appendValJSON(dst, v)
	seen[id] = [2]int{from, len(dst)}
	return dst
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
