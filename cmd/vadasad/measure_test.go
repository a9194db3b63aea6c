package main

import (
	"encoding/json"
	"net/url"
	"os"
	"testing"
)

// The daemon answers every row of the risk layer's golden parameter table
// (shared with the CLI's test) exactly as the table says: query parameters
// select measures through the measure table and nothing else.
func TestMeasureParametersGolden(t *testing.T) {
	raw, err := os.ReadFile("../../internal/risk/testdata/parsespec.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct{ Params, Name, Error string }
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, testConfig(t))
	for _, c := range cases {
		q, err := url.ParseQuery(c.Params)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		m, err := s.measureFromValues(q)
		if err == nil {
			got = m.Name()
		}
		if got != c.Name || (err != nil) != (c.Error != "") || (err != nil && err.Error() != c.Error) {
			t.Errorf("?%s: measure %q, error %v; want %q, %q", c.Params, got, err, c.Name, c.Error)
		}
	}
}
