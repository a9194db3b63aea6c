package jsonscan

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// validCorpus seeds FuzzValid with the grammar cases of the /reason decoder's
// corpus (FuzzReasonFacts in cmd/vadasad), whose scan this package is:
// escapes, invalid UTF-8, numbers, literals, nesting at and past the cap,
// whitespace, trailing bytes and every malformed token it names.
var validCorpus = []string{
	`{"program":"p(X) :- q(X).","facts":{"q":[["a",1],["b",2.5]]},"query":["p"]}`,
	`{"q":[["a\"b\\c\n\té😀"],["caf` + "\xc3\xa9" + `"],["<>&  "],["\u0001\u001f\b\f\/"],["\ud800"],["\ud800x\udc00"]]}`,
	`{"q":[["a` + "\xff" + `b"],["` + "\xc3" + `"],["` + "\xe2\x82" + `"],["ok"]]}`,
	`[-0,0,0.0,1E+2,100,1e21,1e-7,9007199254740993,0.1,1.5e300,-1e-320,1e-400,123456789012345678901234567890,1e999]`,
	`{"q":[[1]],"q":[[2]]}`,
	`{"q":[null,[1],null,[]]}`,
	" {\n\t\"program\" : \"p\" , \"facts\" : { \"q\" : [ [ 1 , \"a\" ] ,\r\n\t[ 2 , \"b\" ] , [ ] , null ] , \"r\" : null } } ",
	`{"q":[{"a":1}],"r":{},"s":true,"t":false,"u":"x","v":5}`,
	`[]`, `null`, `"x"`, `5`, ``, ` `, `{}`, `true`, `false`,
	"\xef\xbb\xbf{}",
	`{"q":[[1]]} x`, `{"q":[[1]]}x`, `{"q":[[1]}`, `{"q":[[1]]`, `[1]]`,
	"{\"pro\x01gram\":1}", "[\"a\x1fb\"]", "[\" \x7f\"]",
	`[01]`, `[1.]`, `[.5]`, `[1e]`, `[1E+]`, `[-]`, `[-0.5e-3,1.25E+2]`, `[+1]`, `[0x1]`,
	`[1,]`, `[1 2]`, `[,1]`, `{"a":1,}`, `{"a" 1}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{1:1}`,
	`["\x"]`, `["\u12g4"]`, `["\u123g"]`, `["\u123"]`, `["abc`, `"\`,
	`[nul]`, `[tru]`, `[fals]`, `[nulll]`, `[True]`, `[NaN]`, `[Infinity]`,
	strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
	strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1),
	strings.Repeat(`{"a":`, MaxDepth) + "1" + strings.Repeat("}", MaxDepth),
	strings.Repeat(`{"a":`, MaxDepth+1) + "1" + strings.Repeat("}", MaxDepth+1),
	strings.Repeat("[", MaxDepth+1),
	nested(MaxDepth, false), nested(MaxDepth+1, false), nested(MaxDepth, true), nested(MaxDepth+1, true),
	"[" + nested(MaxDepth-1, false) + "]", "[" + nested(MaxDepth, false) + "]",
	`{"b":` + nested(MaxDepth-1, true) + "}", `{"b":` + nested(MaxDepth, true) + "}",
	strings.Repeat(`[{"a":`, MaxDepth/2) + "[]" + strings.Repeat("}]", MaxDepth/2),
	`"\u003c\u003e\u0026"`, `"\u2028"`, "\"\u2028\"", `"⊥3"`, `"*"`, "\"\xed\xa0\x80\"", "\"\xef\xbf\xbd\"", "\"\xf4\x90\x80\x80\"",
}

// FuzzValid holds Valid to json.Valid, and the string rule to what
// json.Unmarshal decodes a string to: Unquote's value always, and the bytes
// between the quotes when String calls the string plain.
func FuzzValid(f *testing.F) {
	for _, doc := range validCorpus {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Valid(b), json.Valid(b); got != want {
			t.Fatalf("Valid(%q) = %v, json.Valid says %v", b, got, want)
		}
		end, ok, plain := String(b, 0)
		if !ok {
			if len(b) > 0 && b[0] == '"' && json.Valid(b) {
				t.Fatalf("String refuses %q, which encoding/json reads", b)
			}
			return
		}
		var want string
		if err := json.Unmarshal(b[:end], &want); err != nil {
			t.Fatal(err)
		}
		if got, gotEnd, ok := Unquote(b, 0); !ok || got != want || gotEnd != end {
			t.Fatalf("Unquote(%q) = %q, %d, %v; encoding/json says %q, %d", b, got, gotEnd, ok, want, end)
		}
		if plain && want != string(b[1:end-1]) {
			t.Fatalf("String calls %q plain, encoding/json decodes it to %q", b[:end], want)
		}
	})
}

// nested is n arrays (or n objects, each the value of member "a") around 1.
func nested(n int, object bool) string {
	if object {
		return strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n)
	}
	return strings.Repeat("[", n) + "1" + strings.Repeat("]", n)
}

// TestScannerDepthCountsEnclosingContainers: a scan that starts inside a
// document starts at its depth, so the cap is the document's, not the
// value's. A value n deep scanned at depth d is held to json.Valid of the
// same value inside d arrays, at and around the cap, for arrays, objects and
// both alternating.
func TestScannerDepthCountsEnclosingContainers(t *testing.T) {
	value := []byte(strings.Repeat("[", MaxDepth-1) + strings.Repeat("]", MaxDepth-1))
	for depth, want := range map[int]bool{0: true, 1: true, 2: false} {
		s := Scanner{B: value, Depth: depth}
		if got := s.Value() && s.I == len(value); got != want {
			t.Errorf("%d arrays inside %d containers: %v, want %v", MaxDepth-1, depth, got, want)
		}
	}
	mixed := func(n int) string {
		return strings.Repeat(`[{"a":`, n/2) + strings.Repeat("[", n%2) + "1" + strings.Repeat("]", n%2) + strings.Repeat("}]", n/2)
	}
	for _, n := range []int{MaxDepth - 1, MaxDepth, MaxDepth + 1} {
		for kind, value := range map[string]string{"arrays": nested(n, false), "objects": nested(n, true), "mixed": mixed(n)} {
			for _, depth := range []int{0, 1} {
				doc := strings.Repeat("[", depth) + value + strings.Repeat("]", depth)
				s := Scanner{B: []byte(value), Depth: depth}
				if got, want := s.Value() && s.I == len(value), json.Valid([]byte(doc)); got != want {
					t.Errorf("%d %s at depth %d: %v, json.Valid says %v", n, kind, depth, got, want)
				}
			}
		}
	}
}

// TestObjectHandsMembersToHook: Object hands each member its quoted key, the
// offset the key starts at and the scan at the value, through any spacing.
func TestObjectHandsMembersToHook(t *testing.T) {
	doc := []byte(` { "a" : 1 , "b\"c":[2, {"d":3}] } `)
	s := Scanner{B: doc, I: 1}
	var got []string
	ok := s.Object(func(key []byte, from int) bool {
		start := s.I
		if !s.Value() || string(doc[from:from+len(key)]) != string(key) {
			return false
		}
		got = append(got, string(key)+"="+string(doc[start:s.I]))
		return true
	})
	if want := `["a"=1 "b\"c"=[2, {"d":3}]]`; !ok || s.I != len(doc)-1 || s.Depth != 0 || fmt.Sprint(got) != want {
		t.Fatalf("Object: %v at %d depth %d, members %v; want %s", ok, s.I, s.Depth, got, want)
	}
}
