package main

import (
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"vadasa/internal/datalog/lint"
)

func TestLintEndpointCleanProgram(t *testing.T) {
	src := "% vadalint:input q\n% vadalint:output p\np(X) :- q(X).\n"
	rec := do(t, testServer(t), "POST", "/lint", src)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
		Errors      int               `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Diagnostics) != 0 || out.Errors != 0 {
		t.Fatalf("want clean report, got %s", rec.Body)
	}
}

func TestLintEndpointBrokenProgram(t *testing.T) {
	// Arity clash: own/3 fact versus own/2 in the rule body. Linting a
	// broken program still succeeds — 200 with the findings.
	src := "own(\"a\",\"b\",0.6).\nrel(X,Y) :- own(X,Y).\n"
	rec := do(t, testServer(t), "POST", "/lint?outputs=rel", src)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
		Errors      int               `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 1 || len(out.Diagnostics) != 1 {
		t.Fatalf("want one error, got %s", rec.Body)
	}
	d := out.Diagnostics[0]
	if d.Code != lint.CodeArity || d.Pos.Line != 2 || d.Pos.Col != 13 {
		t.Errorf("want %s at 2:13, got %s at %d:%d", lint.CodeArity, d.Code, d.Pos.Line, d.Pos.Col)
	}
}

func TestReasonEndpoint(t *testing.T) {
	body, _ := json.Marshal(map[string]any{
		"program": "ctr(X,X) :- own(X,_Y,_W).\nrel(X,Y) :- ctr(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.\nctr(X,Y) :- rel(X,Y).\nctr(X,X) :- own(_Y,X,_W).",
		"facts": map[string][][]any{
			"own": {{"a", "b", 0.6}, {"b", "c", 0.6}},
		},
		"query": []string{"ctr"},
	})
	rec := do(t, testServer(t), "POST", "/reason", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Facts map[string][][]any `json:"facts"`
		Stats struct {
			Rounds       int   `json:"rounds"`
			DerivedFacts int   `json:"derived_facts"`
			Attempts     int64 `json:"match_attempts"`
			MaxWork      int64 `json:"max_work"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Rounds < 1 || out.Stats.DerivedFacts < 1 ||
		out.Stats.Attempts < 1 || out.Stats.MaxWork < 1 {
		t.Errorf("stats not populated: %s", rec.Body)
	}
	got := map[[2]string]bool{}
	for _, row := range out.Facts["ctr"] {
		if len(row) == 2 {
			got[[2]string{row[0].(string), row[1].(string)}] = true
		}
	}
	// a controls b directly and c through b.
	for _, want := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}} {
		if !got[want] {
			t.Errorf("missing ctr(%s,%s) in %s", want[0], want[1], rec.Body)
		}
	}
}

// TestReasonStatsKeysMatchREADME: the keys of a /reason reply's stats object
// are the backticked names in the first column of README's stats table, so
// a field added to or dropped from EvalStats fails here until README says so.
func TestReasonStatsKeysMatchREADME(t *testing.T) {
	body, _ := json.Marshal(map[string]any{
		"program": "ctr(X,X) :- own(X,_Y,_W).",
		"facts":   map[string][][]any{"own": {{"a", "b", 0.6}}},
	})
	rec := do(t, testServer(t), "POST", "/reason", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Stats map[string]json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var wire []string
	for k := range out.Stats {
		wire = append(wire, k)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "carry a `stats` object")
	if _, table, ok = strings.Cut(table, "| field | meaning |\n|---|---|\n"); !ok {
		t.Fatal("README.md has no /reason stats table")
	}
	var documented []string
	name := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		first := strings.Split(line, "|")[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(wire)
	slices.Sort(documented)
	if !slices.Equal(wire, documented) {
		t.Fatalf("stats keys on the wire %v, in README's table %v", wire, documented)
	}
}

// TestReasonEndpointRejectsBadProgram pins the 422 contract: error-severity
// findings refuse evaluation and the body carries the diagnostics.
func TestReasonEndpointRejectsBadProgram(t *testing.T) {
	body, _ := json.Marshal(map[string]any{
		"program": "win(X) :- move(X,Y), not win(Y).",
		"facts":   map[string][][]any{"move": {{"a", "b"}}},
		"query":   []string{"win"},
	})
	rec := do(t, testServer(t), "POST", "/reason", string(body))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Error       string            `json:"error"`
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" || len(out.Diagnostics) == 0 {
		t.Fatalf("want error + diagnostics, got %s", rec.Body)
	}
	found := false
	for _, d := range out.Diagnostics {
		if d.Code == lint.CodeNotStratified {
			found = true
		}
	}
	if !found {
		t.Errorf("want a %s diagnostic, got %s", lint.CodeNotStratified, rec.Body)
	}
}

// TestReasonHonoursAllowDirective: the program /reason evaluates is the one
// its lint pass parsed, directive comments included. Mixed arities are an
// error-severity finding the engine itself does not mind; an allow-file
// directive in the program text lets it through.
func TestReasonHonoursAllowDirective(t *testing.T) {
	const rules = "p(X) :- q(X).\np(X,Y) :- q(X), q(Y).\n"
	for _, tc := range []struct {
		program string
		status  int
	}{
		{rules, http.StatusUnprocessableEntity},
		{"% vadalint:allow-file VL002\n" + rules, http.StatusOK},
	} {
		body, _ := json.Marshal(map[string]any{
			"program": tc.program,
			"facts":   map[string][][]any{"q": {{"a"}}},
			"query":   []string{"p"},
		})
		rec := do(t, testServer(t), "POST", "/reason", string(body))
		if rec.Code != tc.status {
			t.Fatalf("%q: status = %d, want %d: %s", tc.program, rec.Code, tc.status, rec.Body)
		}
		if tc.status == http.StatusOK && !strings.Contains(rec.Body.String(), `"p":[["a"],["a","a"]]`) {
			t.Fatalf("%q: want both arities of p, got %s", tc.program, rec.Body)
		}
	}
}

func TestReasonEndpointBadRequests(t *testing.T) {
	h := testServer(t)
	if rec := do(t, h, "POST", "/reason", "{"); rec.Code != http.StatusBadRequest {
		t.Errorf("truncated JSON: status = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/reason", "{}"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing program: status = %d", rec.Code)
	}
	body, _ := json.Marshal(map[string]any{
		"program": "p(X) :- q(X).",
		"facts":   map[string][][]any{"q": {{true}}},
	})
	if rec := do(t, h, "POST", "/reason", string(body)); rec.Code != http.StatusBadRequest {
		t.Errorf("boolean fact argument: status = %d", rec.Code)
	}
}

// TestReasonEGDIsBudgeted: an EGD body is joined by the walk every other
// rule body runs on, so ?budget= and -request-timeout bind it and
// stats.match_attempts counts it. The old EGD walk answered all three
// requests below 200 with "match_attempts":0, the first after seconds of a
// quadratic scan no deadline could stop.
func TestReasonEGDIsBudgeted(t *testing.T) {
	cfg := testConfig(t)
	cfg.requestTimeout = time.Second
	h := startServer(t, cfg).handler
	rows := make([][]any, 12000)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	request := func(program string) string {
		body, _ := json.Marshal(map[string]any{"program": program, "facts": map[string]any{"p": rows}, "query": []string{}})
		return string(body)
	}

	indexed := request("X = Y :- p(A,X), p(A,Y).")
	rec := do(t, h, "POST", "/reason?budget=1000", indexed)
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "exceeded the work budget of 1000 match attempts") {
		t.Fatalf("budget=1000: status = %d, want 422 with the budget text: %s", rec.Code, rec.Body)
	}
	rec = do(t, h, "POST", "/reason", indexed)
	var out struct {
		Stats struct {
			Attempts int64 `json:"match_attempts"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("no budget: status = %d, %v: %s", rec.Code, err, rec.Body)
	}
	if out.Stats.Attempts < int64(len(rows)) {
		t.Fatalf("match_attempts = %d, want the EGD join counted", out.Stats.Attempts)
	}
	// The same join spelled so that no index applies is 144 M candidates.
	start := time.Now()
	rec = do(t, h, "POST", "/reason", request("X = Y :- p(A,X), p(B,Y), A == B."))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("cross product: status = %d after %s, want 504: %s", rec.Code, time.Since(start), rec.Body)
	}
}
