package main

import (
	"encoding/json"
	"flag"
	"net/url"
	"os"
	"testing"
)

// The CLI answers every row of the risk layer's golden parameter table
// (shared with the daemon's test) exactly as the table says, each parameter
// given as the flag of the same name.
func TestMeasureFlagsGolden(t *testing.T) {
	raw, err := os.ReadFile("../../internal/risk/testdata/parsespec.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct{ Params, Name, Error string }
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		q, err := url.ParseQuery(c.Params)
		if err != nil {
			t.Fatal(err)
		}
		var args []string
		for key := range q {
			args = append(args, "-"+key+"="+q.Get(key))
		}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		mo := measureFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		got := ""
		m, err := mo.build()
		if err == nil {
			got = m.Name()
		}
		if got != c.Name || (err != nil) != (c.Error != "") || (err != nil && err.Error() != c.Error) {
			t.Errorf("%v: measure %q, error %v; want %q, %q", args, got, err, c.Name, c.Error)
		}
	}
}
