package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vadasa"
	"vadasa/internal/datalog"
)

// referenceRequest is the /reason body as the handler decoded it before
// facts stopped being boxed: every predicate's rows as slices of any.
type referenceRequest struct {
	Program string             `json:"program"`
	Facts   map[string][][]any `json:"facts,omitempty"`
	Query   []string           `json:"query,omitempty"`
	Inputs  []string           `json:"inputs,omitempty"`
	Outputs []string           `json:"outputs,omitempty"`
	Allow   []string           `json:"allow,omitempty"`
}

// referenceLoad is the boxed load path: encoding/json into [][]any, then
// Add cell by cell. Predicates load in sorted order, as the handler's do.
func referenceLoad(body []byte) (*datalog.Database, error) {
	var req referenceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	preds := make([]string, 0, len(req.Facts))
	for pred := range req.Facts {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	edb := vadasa.NewFactDB()
	for _, pred := range preds {
		for _, row := range req.Facts[pred] {
			args := make([]vadasa.Val, len(row))
			for i, cell := range row {
				switch v := cell.(type) {
				case string:
					args[i] = vadasa.StrVal(v)
				case float64:
					args[i] = vadasa.NumVal(v)
				default:
					return nil, fmt.Errorf("fact %s: argument %d must be a string or number, got %T", pred, i+1, cell)
				}
			}
			edb.Add(pred, args...)
		}
	}
	return edb, nil
}

// rawLoad is the handler's load path without the HTTP around it.
func rawLoad(body []byte) (*datalog.Database, error) {
	req, err := decodeReasonRequest(body)
	if err != nil {
		return nil, err
	}
	return req.loadFacts(req.factPredicates())
}

// checkDecode holds decodeReasonRequest to json.Unmarshal of the whole body
// into the same struct: the scan accepts exactly what json.Valid does, a
// refusal is encoding/json's error in encoding/json's words, and an accepted
// body decodes to the same envelope and the same raw rows per predicate.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := decodeReasonRequest(body)
	want := new(reasonRequest)
	wantErr := json.Unmarshal(body, want)
	s := factScan{b: body}
	if accepted, valid := s.document(), json.Valid(body); accepted != valid {
		t.Fatalf("the scan accepts: %v, json.Valid: %v", accepted, valid)
	}
	if wantErr != nil {
		if gotErr == nil || gotErr.Error() != "decoding request: "+wantErr.Error() {
			t.Fatalf("encoding/json refuses with %q, the decoder says %v", wantErr, gotErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("encoding/json accepts, the decoder says %v", gotErr)
	}
	for pred, raw := range want.Facts {
		var v any
		d := json.NewDecoder(bytes.NewReader(raw))
		d.UseNumber() // 1e999 is a cell too
		if err := d.Decode(&v); err != nil {
			t.Fatal(err)
		}
		var n factSize
		rows, _ := v.([]any)
		for _, row := range rows {
			cells, _ := row.([]any)
			n.rows, n.cells = n.rows+1, n.cells+len(cells)
		}
		if got.sizes[pred] != n {
			t.Fatalf("%s: the scan counted %+v, the value holds %+v", pred, got.sizes[pred], n)
		}
	}
	if len(got.sizes) != len(want.Facts) {
		t.Fatalf("sizes of %d predicates for %d", len(got.sizes), len(want.Facts))
	}
	got.sizes = nil // what the load sizes its relations by, checked above
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n  %+v\nencoding/json\n  %+v", got, want)
	}
}

// reasonFactsCorpus is the seed corpus of FuzzReasonFacts: every way a fact
// can be spelled or misspelled that the decoder has an opinion about.
var reasonFactsCorpus = []string{
	`{"program":"p(X) :- q(X).","facts":{"q":[["a",1],["b",2.5]]},"query":["p"]}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["a\"b\\c\n\t\u00e9\ud83d\ude00"],["caf` + "\xc3\xa9" + `"],["<>&\u2028\u2029"],["\u0001\u001f\b\f\/"],["\ud800"],["\ud800x\udc00"],["plain"]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["a` + "\xff" + `b"],["` + "\xc3" + `"],["` + "\xe2\x82" + `"],["ok"]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[-0],[0],[0.0],[1E+2],[100],[1e21],[1e-7],[9007199254740993],[0.1],[1.5e300],[-1e-320],[1e-400],[123456789012345678901234567890]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1e999]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[-1e999,"x"]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]],"q":[[2]]},"facts":{"r":[[3]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[null,[1],null,[]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":null}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[],[]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1],[1,2],[1,2,3],["a"],[],[1]]}}`,
	" {\n\t\"program\" : \"p(X) :- q(X).\" , \"facts\" : { \"q\" : [ [ 1 , \"a\" ] ,\r\n\t[ 2 , \"b\" ] , [ ] , null ] , \"r\" : null } } ",
	`{"program":"p(X) :- q(X).","facts":{"q":[{"a":1}]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":"x"}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":5}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":{}}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":true}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[5]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1],true]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1],"row"]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1,null]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["x",[1,2]]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["x","y",{"secret":"v"}]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[false]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"b":[[true]],"a":[[null]]}}`,
	`{"PROGRAM":"p(X) :- q(X).","Facts":{"q":[[1]]},"QUERY":["p"],"unknown":[[{}]]}`,
	`{"program":"p(X) :- q(X).","facts":null}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]]}} x`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]}`,
	`{"program":"p(X) :- q(X).","facts":{"":[[""]],"é":[["é"]]}}`,
	nested(maxJSONDepth),
	nested(maxJSONDepth + 1),
	`{"program":"p(X) :- q(X).","FACTS":{"q":[[1]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]]},"Facts":{"q":[[2]],"r":[[3]]}}`,
	"{\"program\":\"p(X) :- q(X).\",\"faCT\u017f\":{\"q\":[[1]]},\"fact\\u017F\":{\"r\":[[2]]},\"facts\\u0000\":{\"s\":[[3]]}}",
	"{\"program\":\"p(X) :- q(X).\",\"\u212aey\":{\"q\":[[1]]},\"facts\":{\"\u212a\":[[1]],\"\\u212A\":[[2]],\"K\":[[3]],\"k\":[[4]]}}",
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]]},"facts":null,"facts":{"r":[[2]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]]},"facts":{"q":[[2]]},"facts":null}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]]},"facts":5}`,
	`{"program":"p(X) :- q(X).","facts":["q"],"facts":{"q":[[1]]},"query":"p"}`,
	`{"program":7,"facts":{"q":[[1]]},"facts":"x"}`,
	`[]`, `null`, `"x"`, `5`, ``, ` `,
	"\xef\xbb\xbf" + `{"program":"p(X) :- q(X).","facts":{"q":[[1]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1]]}}x`,
	"{\"pro\x01gram\":\"p(X) :- q(X).\",\"facts\":{\"q\":[[1]]}}",
	"{\"program\":\"p(X) :- q(X).\",\"facts\":{\"q\":[[\"a\x1fb\"]]}}",
	"{\"program\":\"p(X) :- q(X).\",\"facts\":{\"q\":[[\" \x7f\"]]}}",
	`{"program":"p(X) :- q(X).","facts":{"\ud800":[[1]],"\udc00x":[[2]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[01]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1.]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[.5]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1e]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1E+]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[-]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[-0.5e-3,1.25E+2]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1,]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1 2]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[1}]]}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["\x"]]},}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["\u12g4"]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[["\u123g"]]}}`,
	`{"program":"p(X) :- q(X).","facts":{"q":[[nul]]}}`,
	`{"program":"p(X) :- q(X).","facts" {"q":[[1]]}}`,
}

// nested is a body whose facts hold a value depth containers deep, the
// envelope's object and the facts object counted.
func nested(depth int) string {
	return `{"program":"p(X) :- q(X).","facts":{"q":` +
		strings.Repeat("[", depth-2) + strings.Repeat("]", depth-2) + `}}`
}

// FuzzReasonFacts holds the request decoder to encoding/json (checkDecode)
// and the raw-bytes fact loader to the boxed decode it replaced: for any
// body, both accept or both refuse; a bad cell is refused in the same words;
// and what they load is the same relation, row for row. Through the handler,
// a body encoding/json refuses is answered 400 in its words, one the
// reference refuses is never answered 200, and every answer is a JSON
// document.
func FuzzReasonFacts(f *testing.F) {
	for _, body := range reasonFactsCorpus {
		f.Add([]byte(body))
	}
	h := testServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		want, wantErr := referenceLoad(body)
		got, gotErr := rawLoad(body)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("reference error %v, loader error %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if strings.HasPrefix(wantErr.Error(), "fact ") && gotErr.Error() != wantErr.Error() {
				t.Fatalf("bad cell: reference says %q, loader says %q", wantErr, gotErr)
			}
		} else {
			if got.Len() != want.Len() || !equalStrings(got.Predicates(), want.Predicates()) {
				t.Fatalf("loaded %d facts over %v, reference %d over %v",
					got.Len(), got.Predicates(), want.Len(), want.Predicates())
			}
			for _, pred := range want.Predicates() {
				g, w := got.Rows(pred), want.Rows(pred)
				for i := 0; i < w.Len(); i++ {
					if g.Row(i).Tuple().Key() != w.Row(i).Tuple().Key() {
						t.Fatalf("%s row %d: loaded %s, reference %s", pred, i, g.Row(i).Tuple(), w.Row(i).Tuple())
					}
				}
			}
		}
		rec := do(t, h, "POST", "/reason", string(body))
		if err := json.Unmarshal(body, new(reasonRequest)); err != nil {
			var out struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(rec.Body.Bytes(), &out) // a body that is not JSON leaves Error empty: caught below
			if rec.Code != http.StatusBadRequest || out.Error != "decoding request: "+err.Error() {
				t.Fatalf("encoding/json refuses with %q, the handler answered %d %s", err, rec.Code, rec.Body)
			}
		}
		if wantErr != nil && rec.Code == http.StatusOK {
			t.Fatalf("reference refuses the body (%v), the handler answered 200", wantErr)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d with a body that is not JSON: %q", rec.Code, rec.Body)
		}
	})
}

func equalStrings(a, b []string) bool {
	return strings.Join(a, "\x00") == strings.Join(b, "\x00")
}

// TestReasonFactErrorsNameNoCell: the loader's complaints carry the
// predicate and the argument position, never what the cell held.
func TestReasonFactErrorsNameNoCell(t *testing.T) {
	for _, body := range []string{
		`{"program":"p(X) :- q(X).","facts":{"q":[["x","y",{"secret":"v"}]]}}`,
		`{"program":"p(X) :- q(X).","facts":{"q":[["x",["secret"]]]}}`,
		`{"program":"p(X) :- q(X).","facts":{"q":[[123456e999]]}}`,
		`{"program":"p(X) :- q(X).","facts":{"q":["secret"]}}`,
	} {
		_, err := rawLoad([]byte(body))
		if err == nil || strings.Contains(err.Error(), "secret") || strings.Contains(err.Error(), "123456") {
			t.Errorf("%s: error %v", body, err)
		}
	}
}

// TestReasonNonFiniteNumbers: exp, pow and * can derive ±Inf and NaN, which
// JSON has no literal for. They are rendered as strings in their source
// spelling, like labelled nulls and sets; the response used to die in the
// encoder after the 200 had gone out, leaving an empty body.
func TestReasonNonFiniteNumbers(t *testing.T) {
	rec := do(t, testServer(t), "POST", "/reason",
		`{"program":"p(Y) :- q(X), Y = exp(X).\nn(Y) :- q(X), Y = exp(X) * 0.\nm(Y) :- q(X), Y = 0 - exp(X).","facts":{"q":[[1000]]},"query":["p","n","m","q"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Facts map[string][][]any `json:"facts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("body does not parse (%v): %q", err, rec.Body)
	}
	want := map[string]any{"p": "+Inf", "n": "NaN", "m": "-Inf", "q": float64(1000)}
	for pred, v := range want {
		if rows := out.Facts[pred]; len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != v {
			t.Errorf("%s = %v, want [[%v]]", pred, rows, v)
		}
	}
}

// TestReasonResponseMatchesEncoder: the appended response is, byte for
// byte, what json.Encoder (HTML escaping off) writes for the same facts as
// a map of boxed rows — strings that need every kind of escape, numbers on
// both sides of every format switch (integers at ±(2^53−1) and ±2^53, the
// edges of the integer path, included), labelled nulls, sets, mixed
// arities, empty and absent predicates, duplicate query entries, and values
// repeated across rows and predicates, which the reply renders once.
func TestReasonResponseMatchesEncoder(t *testing.T) {
	edb := vadasa.NewFactDB()
	strs := []string{"", "plain", `q"uo\te`, "<>&", "\u2028\u2029", "\x00\x01\x1f\x7f\b\f\n\r\t", "é😀", "bad\xffutf\xc3", "\xe2\x82"}
	nums := []float64{0, 1, -1, 0.1, 1e21, 1e20, 999999999999999868928, 1e-6, 1e-7, 9.5e-7, 1 << 53, 1<<53 + 2,
		-1e-320, 1.5e300, 123456789.125, 5e-324, math.MaxFloat64, 100, 1e22, 1.2e-9}
	for i, s := range strs {
		edb.Add("s", vadasa.StrVal(s), vadasa.NumVal(float64(i)))
		edb.Add(s, vadasa.StrVal(s)) // predicates named like the strings: keys need escaping too
	}
	for _, n := range nums {
		edb.Add("n", vadasa.NumVal(n))
		edb.Add("n", vadasa.NumVal(-n), vadasa.StrVal("neg"))
	}
	edb.Add("mixed", datalog.NullVal(3), datalog.List(vadasa.StrVal("<b>"), vadasa.NumVal(2), datalog.NullVal(1)))
	edb.Add("mixed")
	edb.Add("mixed", vadasa.NumVal(math.Inf(1)), vadasa.NumVal(math.NaN()))
	for _, n := range []float64{1<<53 - 1, 1 << 53, 123456789012345, 0.25, 1e-7} {
		edb.Add("edge", vadasa.NumVal(n), vadasa.NumVal(-n))
	}
	for i := 0; i < 40; i++ {
		// Rows that share their values, in other columns and predicates.
		risk := vadasa.NumVal(1 / float64(3+i%4))
		edb.Add("risk", vadasa.NumVal(float64(i)), risk, vadasa.StrVal(strs[i%len(strs)]))
		edb.Add("again", risk, vadasa.NumVal(float64(i%3)), datalog.NullVal(uint64(1+i%2)))
		edb.Add("again", vadasa.StrVal(strs[i%len(strs)]), datalog.List(vadasa.NumVal(0.5), vadasa.StrVal("<b>")), risk)
	}
	prog, err := vadasa.ParseProgram(`out(X) :- n(X).`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := vadasa.Reason(prog, edb, nil)
	if err != nil {
		t.Fatal(err)
	}
	tail := struct {
		Violations []string              `json:"violations,omitempty"`
		Stats      vadasa.ReasoningStats `json:"stats"`
	}{[]string{"a <b> & c"}, res.Stats}

	preds := append(res.DB().Predicates(), "absent", "n", "n")
	boxed := make(map[string][][]any)
	for _, pred := range preds {
		rows := make([][]any, 0)
		for _, f := range res.Facts(pred) {
			row := make([]any, len(f))
			for j, v := range f {
				switch {
				case v.Kind() == datalog.KStr:
					row[j] = v.StrVal()
				case v.Kind() == datalog.KNum && !math.IsInf(v.NumVal(), 0) && !math.IsNaN(v.NumVal()):
					row[j] = v.NumVal()
				default:
					row[j] = v.String()
				}
			}
			rows = append(rows, row)
		}
		boxed[pred] = rows
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		Facts      map[string][][]any    `json:"facts"`
		Violations []string              `json:"violations,omitempty"`
		Stats      vadasa.ReasoningStats `json:"stats"`
	}{boxed, tail.Violations, tail.Stats}); err != nil {
		t.Fatal(err)
	}

	s := startServer(t, testConfig(t))
	rec := httptest.NewRecorder()
	if err := s.writeReasonResponse(rec, res, preds, tail); err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("response differs from the encoder's:\n got %q\nwant %q", got, want.Bytes())
	}
}
