package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vadasa"
)

// testConfig is the configuration a daemon started without flags runs under,
// logging to the test.
func testConfig(t testing.TB) config {
	c := *bindFlags(flag.NewFlagSet("vadasad", flag.ContinueOnError))
	c.logf = t.Logf
	return c
}

// startServer builds a server the way main does and closes it with the test.
func startServer(t testing.TB, cfg config) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func testServer(t testing.TB) http.Handler {
	return startServer(t, testConfig(t)).handler
}

func figure1CSV(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := vadasa.WriteCSV(&buf, vadasa.InflationGrowth()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func do(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	rec := do(t, testServer(t), "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestMeasures(t *testing.T) {
	rec := do(t, testServer(t), "GET", "/measures", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Measures []string `json:"measures"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Measures) < 4 {
		t.Fatalf("measures = %v", out.Measures)
	}
}

func TestCategorizeEndpoint(t *testing.T) {
	rec := do(t, testServer(t), "POST", "/categorize", figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Attributes []struct {
			Name     string `json:"name"`
			Category string `json:"category"`
		} `json:"attributes"`
		Unknown []string `json:"unknown"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	byName := map[string]string{}
	for _, a := range out.Attributes {
		byName[a.Name] = a.Category
	}
	if byName["Id"] != "Identifier" || byName["Area"] != "Quasi-identifier" ||
		byName["Weight"] != "Sampling Weight" {
		t.Fatalf("categories = %v", byName)
	}
}

func TestAssessEndpoint(t *testing.T) {
	rec := do(t, testServer(t), "POST", "/assess?measure=k-anonymity&k=2", figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Measure string `json:"measure"`
		Tuples  int    `json:"tuples"`
		Summary struct {
			OverThreshold int `json:"OverThreshold"`
		} `json:"summary"`
		Risky []int `json:"riskyTupleIds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Tuples != 20 {
		t.Fatalf("tuples = %d", out.Tuples)
	}
	// Every Figure 1 combination is unique: all 20 tuples risky at k=2.
	if len(out.Risky) != 20 || out.Summary.OverThreshold != 20 {
		t.Fatalf("risky = %d, summary %d", len(out.Risky), out.Summary.OverThreshold)
	}
}

func TestAssessManualOverrides(t *testing.T) {
	// Forcing everything but Area to non-identifying: group by Area only.
	rec := do(t, testServer(t),
		"POST", "/assess?measure=k-anonymity&k=2&qi=Area&id=Id,Sector,Employees,ResidentialRevenue,ExportRevenue,ExportToDE,Growth6mos&weight=Weight",
		figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Risky []int `json:"riskyTupleIds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	// Areas: North x7, South x5, Center x8 — nothing unique.
	if len(out.Risky) != 0 {
		t.Fatalf("risky = %v, want none", out.Risky)
	}
}

func TestAnonymizeEndpoint(t *testing.T) {
	// Pin the fixture's categorization: ExportToDE and Growth6mos are
	// non-identifying in Figure 1's schema, while name inference would
	// make them quasi-identifiers (the Figure 4 dictionary view).
	rec := do(t, testServer(t),
		"POST", "/anonymize?measure=k-anonymity&k=2&threshold=0.5&plain=ExportToDE,Growth6mos&qi=ExportRevenue", figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		CSV           string   `json:"csv"`
		NullsInjected int      `json:"nullsInjected"`
		Residual      []int    `json:"residualTupleIds"`
		Decisions     []string `json:"decisions"`
		MinGroupSize  int      `json:"minGroupSizeAfter"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.NullsInjected == 0 || len(out.Decisions) != out.NullsInjected {
		t.Fatalf("nulls %d, decisions %d", out.NullsInjected, len(out.Decisions))
	}
	if len(out.Residual) != 0 {
		t.Fatalf("residual = %v", out.Residual)
	}
	if out.MinGroupSize < 2 {
		t.Fatalf("min group size = %d", out.MinGroupSize)
	}
	if !strings.Contains(out.CSV, "⊥") {
		t.Fatal("anonymized CSV has no labelled nulls")
	}
	// The anonymized CSV must parse back against the same schema.
	d, err := vadasa.ReadCSV(strings.NewReader(out.CSV), "back", vadasa.InflationGrowth().Attrs)
	if err != nil {
		t.Fatalf("re-reading anonymized CSV: %v", err)
	}
	if got := vadasa.VerifyKAnonymity(d, 2, vadasa.MaybeMatch); len(got) != 0 {
		t.Fatalf("returned dataset not 2-anonymous: %v", got)
	}
}

func TestBadRequests(t *testing.T) {
	h := testServer(t)
	cases := []struct {
		method, target, body string
		wantStatus           int
	}{
		{"POST", "/assess", "", http.StatusBadRequest},
		{"POST", "/assess?measure=bogus", figure1CSV(t), http.StatusBadRequest},
		{"POST", "/assess?k=notanumber", figure1CSV(t), http.StatusBadRequest},
		{"POST", "/anonymize?threshold=wat", figure1CSV(t), http.StatusBadRequest},
		{"POST", "/assess?measure=l-diversity", figure1CSV(t), http.StatusBadRequest},
		{"POST", "/categorize", "HeaderOnly", http.StatusBadRequest},
		{"GET", "/nope", "", http.StatusNotFound},
	}
	for _, c := range cases {
		rec := do(t, h, c.method, c.target, c.body)
		if rec.Code != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d (%s)",
				c.method, c.target, rec.Code, c.wantStatus, rec.Body)
		}
	}
}

// A weight that is not a finite number > 0 is a 400 at every intake, naming
// the cell by digest and leaving nothing behind: no job under -job-dir, no
// record in a stream's journal. Scored, a NaN weight made its group's risk
// NaN, which no threshold catches.
func TestNonFiniteWeight400(t *testing.T) {
	cfg := testConfig(t)
	cfg.jobDir, cfg.streamDir = t.TempDir(), t.TempDir()
	s := startServer(t, cfg)
	<-s.writePath.Load().jobsRecovered
	h := s.handler

	if rec := do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 2)); rec.Code != http.StatusCreated {
		t.Fatalf("append = %d: %s", rec.Code, rec.Body)
	}
	wal := filepath.Join(cfg.streamDir, "s1.wal")
	before, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"NaN", "Inf", "-Inf", "0", "-3"} {
		body := "Id,Area,Sector,Weight\nc1,a,b," + w + "\nc2,a,b,10\nc3,x,y,10\n"
		for _, target := range []string{
			"/assess?measure=individual-risk",
			"/anonymize?measure=re-identification&threshold=0.05",
			"/jobs/anonymize?measure=re-identification&threshold=0.05",
		} {
			rec := do(t, h, "POST", target, body)
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad weight sha256:") {
				t.Errorf("weight %s: POST %s = %d %s, want 400 bad weight", w, target, rec.Code, rec.Body)
			}
		}
		batch := "Id,Sector,Region,Weight\nc8,s0,r0," + w + "\nc9,s0,r0,10\n"
		if rec := do(t, h, "POST", appendURL("s1", "b-"+w), batch); rec.Code != http.StatusBadRequest {
			t.Errorf("weight %s: append = %d %s, want 400", w, rec.Code, rec.Body)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.jobDir, "*")); len(left) > 0 {
		t.Errorf("refused submissions left %v under -job-dir", left)
	}
	if after, err := os.ReadFile(wal); err != nil || !bytes.Equal(after, before) {
		t.Errorf("refused appends changed the stream journal (%v)", err)
	}
}

func TestLDiversityEndpoint(t *testing.T) {
	rec := do(t, testServer(t),
		"POST", "/assess?measure=l-diversity&k=2&sensitive=Growth6mos", figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	rec := do(t, testServer(t),
		"POST", "/explain?measure=k-anonymity&k=2&tuple=4", figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Explanation string `json:"explanation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Explanation, "riskout(4,") {
		t.Fatalf("explanation = %q", out.Explanation)
	}
	// Missing tuple parameter.
	rec = do(t, testServer(t), "POST", "/explain?measure=k-anonymity", figure1CSV(t))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing tuple: status = %d", rec.Code)
	}
	// A malformed one is named as malformed, not as missing.
	rec = do(t, testServer(t), "POST", "/explain?measure=k-anonymity&tuple=abc", figure1CSV(t))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `bad tuple parameter \"abc\"`) {
		t.Fatalf("malformed tuple: status = %d, body = %s", rec.Code, rec.Body)
	}
}

// The knowledge base is read once, when the daemon starts: requests
// categorize from the framework built then, not from the file. Deleting the
// file after start-up proves it — the KB is the only thing that makes
// "Zorgle" a quasi-identifier.
func TestKnowledgeBaseIsReadOnce(t *testing.T) {
	cfg := testConfig(t)
	cfg.kbPath = filepath.Join(t.TempDir(), "kb.json")
	kb := `{"experience":[{"attr":"Zorgle","category":"Quasi-identifier"}],"hierarchy":{}}`
	if err := os.WriteFile(cfg.kbPath, []byte(kb), 0o644); err != nil {
		t.Fatal(err)
	}
	h := startServer(t, cfg).handler
	if err := os.Remove(cfg.kbPath); err != nil {
		t.Fatal(err)
	}
	csv := "Id,Zorgle,Weight\n1,a,1\n2,a,1\n3,b,1\n"
	for _, target := range []string{"/assess?measure=k-anonymity&k=2", "/assess?measure=k-anonymity&k=2&budget=1000"} {
		rec := do(t, h, "POST", target, csv)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s with the KB file gone: %d %s", target, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), `"riskyTupleIds":[3]`) {
			t.Errorf("%s did not group by the KB's quasi-identifier: %s", target, rec.Body)
		}
	}
	// Without the KB the column is non-identifying and there is nothing to group by.
	if rec := do(t, testServer(t), "POST", "/assess?measure=k-anonymity&k=2", csv); rec.Code == http.StatusOK {
		t.Fatalf("control without -kb: %d %s; the fixture does not depend on the KB", rec.Code, rec.Body)
	}
}
