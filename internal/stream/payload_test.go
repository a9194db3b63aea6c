package stream

import (
	"encoding/json"
	"reflect"
	"testing"
)

// payloadCorpus seeds FuzzStreamPayload: batch and withdraw payloads in the
// layout journal.Append writes, every way a string's value departs from its
// bytes, the null and empty shapes, and the layouts the one-pass read leaves
// to encoding/json.
var payloadCorpus = []string{
	`{"batch":"b1","rows":[["100000","Milano","Commerce","0-9","0-10","2420"],["100001","Roma","Commerce","10-19","30-40","72"]]}`,
	`{"rows":[1,2,3,1000,4999]}`,
	`{"batch":"b<>&","rows":[["<script>","a&b"]]}`,
	`{"batch":"b\u003c\u003e\u0026","rows":[["\u003cscript\u003e","a\u0026b","\u00e9","\u2028\u2029"]]}`,
	`{"batch":"b2","rows":[["\u2028","` + "\u2028" + `","a\"b","a\\b","\/","\b\f\n\r\t","é"]]}`,
	`{"batch":"b3","rows":[["café","Zürich","東京","😀","⊥3","*",""]]}`,
	`{"batch":"b4","rows":[["a` + "\xff" + `b","` + "\xc3" + `","` + "\xed\xa0\x80" + `","\ud800","𐀀","` + "\xef\xbf\xbd" + `"]]}`,
	`{"batch":"b5","rows":[null,["a"],null]}`,
	`{"batch":"b6","rows":null}`,
	`{"batch":"b7","rows":[]}`,
	`{"batch":"b8","rows":[[],["a"],[]]}`,
	`{"batch":"","rows":[[""]]}`,
	`{"rows":[["a"]],"batch":"b9"}`,
	`{"Batch":"b10","ROWS":[["a"]]}`,
	`{"batch":"b11","batch":"b12","rows":[["a"]],"rows":[["b"]]}`,
	`{"batch":"b13"}`,
	`{"rows":[["a"]]}`,
	` {"batch":"b14","rows":[["a"]]}`,
	`{"batch": "b15", "rows": [["a", "b"]]}`,
	"{\"batch\":\"b16\",\"rows\":[[\"a\"]]}\n",
	`{"batch":"b17","rows":[["a",null]]}`,
	`{"batch":"b18","rows":[["a",1]]}`,
	`{"batch":null,"rows":[["a"]]}`,
	`{"batch":"b19","rows":[["a"],]}`,
	`{"batch":"b20","rows":[["a"]]}x`,
	`{"batch":"b21","rows":[["a` + "\x01" + `"]]}`,
	`{"batch":"b22","rows":[["\x"]]}`,
	`{"rows":[-0]}`,
	`{"rows":[0,-1,2147483648,-9223372036854775808,9223372036854775807]}`,
	`{"rows":[1e3]}`,
	`{"rows":[1.0]}`,
	`{"rows":[18446744073709551616]}`,
	`{"rows":[9223372036854775808]}`,
	`{"rows":[01]}`,
	`{"rows":[-]}`,
	`{"rows":["1"]}`,
	`{"rows":null}`,
	`{"rows":[]}`,
	`{"rows":[null]}`,
	`{"rowIds":[1]}`,
	`{"rows":[1],"rows":[2]}`,
	`{"ROWS":[1]}`,
	`{"rows": [1, 2]}`,
	`{}`, `null`, `[]`, `"rows"`, ``,
}

// FuzzStreamPayload holds the one-pass batch and withdraw decoders to
// json.Unmarshal: the same value when it decodes, the same error when it
// does not, and the layout json.Marshal writes — Append's — always read in
// one pass.
func FuzzStreamPayload(f *testing.F) {
	for _, p := range payloadCorpus {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, readBatch)
		checkDecode(t, b, readWithdraw)
	})
}

func checkDecode[T any](t *testing.T, b []byte, read func([]byte) (T, bool)) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(b, &want)
	got, err := decode(b, read)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("decoding %q into %T: error %v, encoding/json's is %v", b, want, err, wantErr)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoding %q into %T: %#v, %v; encoding/json decodes %#v", b, want, got, err, want)
	}
	canon, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := read(canon); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("the one-pass read of %s: %#v, %v; want %#v", canon, got, ok, want)
	}
}
