package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vadasa"
)

// explainWholeTable is POST /explain reading the whole table whatever the
// measure: the reply the group read must reproduce byte for byte.
func explainWholeTable(s *server, w http.ResponseWriter, r *http.Request) error {
	f, d, _, err := s.loadDataset(w, r)
	if err != nil {
		return badRequest(err)
	}
	m, err := s.measureFromValues(r.URL.Query())
	if err != nil {
		return badRequest(err)
	}
	tuple, err := intValue(r.URL.Query(), "tuple", 0)
	if err != nil {
		return badRequest(err)
	}
	if tuple == 0 {
		return badRequest(fmt.Errorf("the tuple query parameter is required"))
	}
	ex, err := f.ExplainRiskContext(r.Context(), d, m, tuple)
	if err != nil {
		return unprocessable(err)
	}
	return s.writeJSON(w, http.StatusOK, map[string]string{"explanation": ex})
}

// Whether /explain reads the tuple's group or the whole table, its reply —
// status, headers, body — is the same: explanations over tables with and
// without labelled nulls, and every failure the group read could reorder.
func TestExplainGroupReadMatchesWholeTable(t *testing.T) {
	s := anonymizeServer(t)
	whole := &route{pattern: "POST /explain", serve: explainWholeTable}

	d := vadasa.Generate(vadasa.GeneratorConfig{Tuples: 400, QIs: 4, Dist: vadasa.DistU, Seed: 47})
	qi := d.QuasiIdentifiers()
	for i, r := range d.Rows {
		switch i % 7 {
		case 0:
			r.Values[qi[i%len(qi)]] = d.Nulls.Fresh()
		case 3: // a null shared with an earlier row: both sit in its group
			r.Values[qi[0]] = d.Rows[i-3].Values[qi[0]]
		}
	}
	var b strings.Builder
	if err := vadasa.WriteCSV(&b, d); err != nil {
		t.Fatal(err)
	}
	nulls := b.String()
	// The same table with "*" for ⊥1, twice: the second mints the id of a
	// literal null further down.
	stars := strings.ReplaceAll(nulls, "⊥1,", "*,")
	if strings.Count(nulls, "⊥1,") != 2 {
		t.Fatalf("the table holds ⊥1 %d times, want 2", strings.Count(nulls, "⊥1,"))
	}
	fig1 := figure1CSV(t)
	lines := strings.SplitAfter(strings.TrimSuffix(fig1, "\n"), "\n")
	last := len(lines) - 1
	withLast := func(row string) string { return strings.Join(lines[:last], "") + row + "\n" }
	badQuote := fig1 + "1,x\"y,Commerce,1000+,0-30,0-30,0-30,4,70\n"
	badWeight := withLast(lines[last][:strings.LastIndexByte(lines[last], ',')+1] + "abc")
	shortRow := withLast("1,North")

	for _, c := range []struct{ target, body string }{
		{"/explain?measure=k-anonymity&k=2&tuple=4", fig1},
		{"/explain?measure=re-identification&tuple=1", fig1},
		{"/explain?measure=individual-risk&tuple=7", fig1},
		{"/explain?measure=individual-risk&estimator=ratio&tuple=2", fig1},
		{"/explain?measure=k-anonymity&k=3&tuple=1", nulls},
		{"/explain?measure=k-anonymity&k=3&tuple=4", nulls},
		{"/explain?measure=re-identification&tuple=200", nulls},
		{"/explain?measure=k-anonymity&k=3&tuple=4", stars},
		{"/explain?measure=re-identification&tuple=400", stars},
		{"/explain?measure=k-anonymity&tuple=1", badQuote},  // a malformed record after the group
		{"/explain?measure=k-anonymity&tuple=1", badWeight}, // a bad weight outside it
		{"/explain?measure=k-anonymity&tuple=2", shortRow},
		{"/explain?measure=k-anonymity&tuple=99", fig1},   // past the last row
		{"/explain?measure=k-anonymity&tuple=401", nulls}, // one past
		{"/explain?measure=k-anonymity&tuple=-1", fig1},
		{"/explain?measure=k-anonymity", badQuote}, // the body's error comes first
		{"/explain?measure=k-anonymity&tuple=abc", badWeight},
		{"/explain?measure=nope&tuple=1", shortRow},
		{"/explain?measure=nope&tuple=1", fig1},
		{"/explain?measure=suda&msu=3&tuple=4", fig1},
		{"/explain?measure=suda&tuple=99", fig1},
		{"/explain?measure=" + subsetMeasure + "&tuple=4", fig1},
		{"/explain?measure=l-diversity&k=2&sensitive=Growth6mos&tuple=4", fig1},
		{"/explain?measure=re-identification&tuple=4&budget=2", fig1},
		{"/explain?measure=k-anonymity&tuple=1&qi=Nope", fig1},
		{"/explain?measure=k-anonymity&tuple=1", "Id,Area,Area,Weight\n1,a,b,1\n"},
		{"/explain?measure=k-anonymity&tuple=1", ""},
	} {
		got := do(t, s.handler, "POST", c.target, c.body)
		want := httptest.NewRecorder()
		s.serve(whole, want, httptest.NewRequest("POST", c.target, strings.NewReader(c.body)))
		if got.Code != want.Code || fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: group read %d %v %q\nwhole table %d %v %q", c.target,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
