package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"vadasa"
	"vadasa/internal/mdb"
	"vadasa/internal/synth"
)

// referenceAnonymizeBody is the /anonymize reply as the handler once wrote
// it — the release buffered, the struct through encoding/json, the two
// utility figures from utility.Compare — for the cycle the request asks for
// (the cycle is deterministic, so running it again gives the reply's). It
// also returns the input dataset and the release.
func referenceAnonymizeBody(t *testing.T, s *server, target, body string) ([]byte, *vadasa.Dataset, *vadasa.Dataset) {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatal(err)
	}
	f, opts, err := s.cycleFromValues(u.Query())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := buildDataset(f, []byte(body), u.Query(), s.cfg.maxCells, vadasa.ParseCSV)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.AnonymizeContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := vadasa.WriteCSV(&csvBuf, res.Dataset); err != nil {
		t.Fatal(err)
	}
	var decisions []string
	for _, dec := range res.Decisions {
		decisions = append(decisions, dec.String())
	}
	rep, err := vadasa.CompareUtility(d, res.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(struct {
		CSV             string   `json:"csv"`
		Iterations      int      `json:"iterations"`
		NullsInjected   int      `json:"nullsInjected"`
		InfoLoss        float64  `json:"infoLoss"`
		Residual        []int    `json:"residualTupleIds"`
		Decisions       []string `json:"decisions"`
		SuppressionRate float64  `json:"suppressionRate"`
		MinGroupSize    int      `json:"minGroupSizeAfter"`
	}{
		csvBuf.String(), res.Iterations, res.NullsInjected, res.InfoLoss,
		res.Residual, decisions, rep.SuppressionRate, rep.MinGroupSizeAfter,
	}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), d, res.Dataset
}

// subsetMeasure names a k-anonymity over Area and Sector alone, the attrs=
// restriction no query parameter spells: anonymizeServer registers it.
const subsetMeasure = "k-anonymity-area-sector"

// anonymizeServer is the daemon anonymizeCases are posted to.
func anonymizeServer(t *testing.T) *server {
	cfg := testConfig(t)
	cfg.extraMeasures = map[string]func() vadasa.RiskMeasure{
		subsetMeasure: func() vadasa.RiskMeasure { return vadasa.KAnonymity{K: 3, Attrs: []string{"Area", "Sector"}} },
	}
	return startServer(t, cfg)
}

// anonymizeCases are /anonymize requests over every measure, with and
// without recoding, on tables with labelled nulls in the input and cells
// that need CSV quoting and JSON escaping. minGroupSizeAfter is read off the
// cycle's index where that groups by exactly the quasi-identifiers under
// maybe-match — rebuilt after every iteration that recodes — and the cases
// include the cycles that regroup the release instead: SUDA, a sensitive
// column among the quasi-identifiers, an attribute subset.
func anonymizeCases(t *testing.T) []struct{ target, body string } {
	table := func(dist vadasa.Distribution, seed int64, nullEvery int) string {
		d := vadasa.Generate(vadasa.GeneratorConfig{Tuples: 1200, QIs: 4, Dist: dist, Seed: seed})
		if nullEvery > 0 {
			qi := d.QuasiIdentifiers()
			for i, r := range d.Rows {
				if i%nullEvery == 0 {
					r.Values[qi[i%len(qi)]] = d.Nulls.Fresh()
				}
			}
		}
		var b strings.Builder
		if err := vadasa.WriteCSV(&b, d); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	odd := []string{`"a ""q"" b"`, `"x,y"`, "\"two\nlines\"", "\"cr\rhere\"", "\u2028sep", "bad\xffutf8",
		`"\."`, `" lead"`, "tab\\t<&>", "⊥0", "é"}
	var b strings.Builder
	b.WriteString("Id,Area,Sector,Weight\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&b, "c%d,%s,%s,%d\n", i, odd[i%len(odd)], odd[(i/3)%len(odd)], 1+i%7)
	}
	oddCSV := b.String()
	w, u, v := table(vadasa.DistW, 3, 0), table(vadasa.DistU, 4, 0), table(vadasa.DistV, 5, 0)
	nulls := table(vadasa.DistU, 6, 9)
	fig1 := figure1CSV(t)
	return []struct{ target, body string }{
		{"/anonymize?measure=k-anonymity&k=3&threshold=0.5", w},
		{"/anonymize?measure=k-anonymity&k=3&threshold=0.5", u},
		{"/anonymize?measure=k-anonymity&k=3&threshold=0.5", v},
		{"/anonymize?measure=k-anonymity&k=3&threshold=0.5", nulls},
		{"/anonymize?measure=re-identification&threshold=0.05", u},
		{"/anonymize?measure=re-identification&threshold=0.05", nulls},
		{"/anonymize?measure=individual-risk&threshold=0.05", v},
		{"/anonymize?measure=individual-risk&estimator=ratio&threshold=0.05", nulls},
		{"/anonymize?measure=suda&msu=3", u},
		{"/anonymize?measure=l-diversity&k=2&sensitive=ResidentialRevenue", w},
		{"/anonymize?measure=l-diversity&k=2&sensitive=ResidentialRevenue&plain=ResidentialRevenue", w},
		{"/anonymize?measure=" + subsetMeasure + "&threshold=0.5", v},
		{"/anonymize?measure=k-anonymity&k=3&recode=true", u},
		{"/anonymize?measure=t-closeness&sensitive=ResidentialRevenue&t=0.37", u},
		{"/anonymize?measure=k-anonymity&k=2&recode=true", fig1},
		{"/anonymize?measure=k-anonymity&k=3", fig1},
		{"/anonymize?measure=re-identification&threshold=0.5&recode=true", fig1},
		{"/anonymize?measure=k-anonymity&k=2&id=Id&qi=Area,Sector&weight=Weight", oddCSV},
		{"/anonymize?measure=k-anonymity&k=4&threshold=0.2&id=Id&qi=Area,Sector&weight=Weight", oddCSV},
		{"/anonymize?measure=k-anonymity&k=2&threshold=1", u},         // nothing to do: no decisions
		{"/anonymize?measure=k-anonymity", "Id,Area,Sector,Weight\n"}, // no rows
	}
}

// The streamed reply is byte for byte the one encoding/json wrote, its two
// utility figures equal to utility.Compare's; and no cycle turns a labelled
// null back into a constant, which is what lets suppressionRate be counted
// from NullsInjected.
func TestAnonymizeReplyMatchesEncodingJSON(t *testing.T) {
	s := anonymizeServer(t)
	for _, c := range anonymizeCases(t) {
		rec := do(t, s.handler, "POST", c.target, c.body)
		want, before, after := referenceAnonymizeBody(t, s, c.target, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.target, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s: reply differs from encoding/json's at byte %d of %d/%d: %q vs %q",
				c.target, i, len(got), len(want), got[i:min(i+60, len(got))], want[i:min(i+60, len(want))])
		}
		qi := before.QuasiIdentifiers()
		for i, r := range before.Rows {
			for _, a := range qi {
				if r.Values[a].IsNull() && !after.Rows[i].Values[a].IsNull() {
					t.Fatalf("%s: row %d attribute %d: a labelled null became a constant", c.target, r.ID, a)
				}
			}
		}
	}
}

// TestAnonymizeKeysMatchREADME: the keys of an /anonymize reply are the
// backticked names in the first column of README's /anonymize table.
func TestAnonymizeKeysMatchREADME(t *testing.T) {
	rec := do(t, testServer(t), "POST", "/anonymize?measure=k-anonymity&k=2", figure1CSV(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	var wire []string
	for k := range out {
		wire = append(wire, k)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "`/anonymize` answers with one JSON object")
	if _, table, ok = strings.Cut(table, "| key | meaning |\n|---|---|\n"); !ok {
		t.Fatal("README.md has no /anonymize table")
	}
	var documented []string
	name := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		for _, m := range name.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(wire)
	slices.Sort(documented)
	if !slices.Equal(wire, documented) {
		t.Fatalf("/anonymize keys on the wire %v, in README's table %v", wire, documented)
	}
}

// However a text is split into writes, jsonStringWriter passes on what
// appendJSONString puts between the quotes for the whole of it — runes cut
// between writes, invalid UTF-8 and empty writes included.
func TestJSONStringWriterAnySplit(t *testing.T) {
	tokens := []string{"a", "é", "€", "😀", "\u2028", "\u2029", "\xff", "\xe2\x82", "\xf0\x9f", "\xed\xa0\x80",
		"\x00", "\x1f", "\n", "\r", "\t", `"`, `\`, "<&>", "\u0085", "\ufffd"}
	rng := rand.New(rand.NewSource(31))
	var text []byte
	for n := 0; n < 50_000; n++ {
		text = text[:0]
		for k := rng.Intn(8); k > 0; k-- {
			text = append(text, tokens[rng.Intn(len(tokens))]...)
		}
		want := appendJSONString(nil, string(text))
		want = want[1 : len(want)-1]
		var got bytes.Buffer
		x := &jsonStringWriter{w: &got}
		for rest := text; ; {
			k := rng.Intn(len(rest) + 1)
			if n, err := x.Write(rest[:k]); n != k || err != nil {
				t.Fatalf("Write = %d, %v", n, err)
			}
			if rest = rest[k:]; len(rest) == 0 {
				break
			}
		}
		if err := x.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%q: wrote %q, want %q", text, got.Bytes(), want)
		}
	}
}

// requestTables holds the request bodies requestTable made, by row count.
var requestTables = map[int][]byte{}

// requestTable returns the CSV body of an R<n>A4U table, generated once per n.
func requestTable(b *testing.B, n int) []byte {
	if body, ok := requestTables[n]; ok {
		return body
	}
	var body bytes.Buffer
	if err := mdb.WriteCSV(&body, synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 459})); err != nil {
		b.Fatal(err)
	}
	requestTables[n] = body.Bytes()
	return body.Bytes()
}

// benchRequests posts body to target b.N times through s's handler and
// reports, per row of the n-row table, the most the live heap stood above
// its level before the loop (sampled every millisecond from runtime/metrics,
// so as of the collection before each sample) and, with a governor, the most
// it had charged; and the share of the CPU the process used that went to the
// collector.
func benchRequests(b *testing.B, s *server, target string, body []byte, n int) {
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	cpu := func() (gc, used float64) {
		metrics.Read(samples)
		return samples[1].Value.Float64(), samples[2].Value.Float64() - samples[3].Value.Float64()
	}
	runtime.GC()
	gc0, used0 := cpu()
	base := samples[0].Value.Uint64()
	var heap uint64
	var charged int64
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			metrics.Read(live)
			heap = max(heap, live[0].Value.Uint64())
			if s.govern != nil {
				charged = max(charged, s.govern.Used())
			}
		}
	}()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d: %.200s", rec.Code, rec.Body)
		}
	}
	b.StopTimer()
	close(done)
	<-stopped
	gc, used := cpu()
	b.ReportMetric(float64(int64(heap)-int64(base))/float64(n), "held-B/row")
	if s.govern != nil {
		b.ReportMetric(float64(charged)/float64(n), "charged-B/row")
	}
	b.ReportMetric(100*(gc-gc0)/(used-used0), "gc-cpu-%")
}

// requestMeasures are the measures of the anonymize_native workload.
var requestMeasures = []string{
	"measure=k-anonymity&k=3&threshold=0.5",
	"measure=re-identification&threshold=0.05",
	"measure=individual-risk&threshold=0.05",
}

// anonymizeBytesPerRow bounds what an /anonymize of a six-column table is
// charged per row beside its body, as README's -mem-budget row states it:
// 192 for the working table (48 + 24 per column), about 70 for the group
// index and the risk vector, the rest for the decision log.
const anonymizeBytesPerRow = 300

// BenchmarkAnonymizeRequest is one whole POST /anonymize through serve —
// body read, categorization, the cycle, the release written into the reply —
// for each measure of the anonymize_native workload on an R25A4U table, and
// on an R1000000A4U table under a -mem-budget of the body and
// anonymizeBytesPerRow for each row, which it must not refuse.
func BenchmarkAnonymizeRequest(b *testing.B) {
	for _, n := range []int{25_000, 1_000_000} {
		for _, q := range requestMeasures {
			name := strings.SplitN(strings.TrimPrefix(q, "measure="), "&", 2)[0]
			if n != 25_000 {
				name = fmt.Sprintf("n=%d/%s", n, name)
			}
			b.Run(name, func(b *testing.B) {
				body := requestTable(b, n)
				cfg := testConfig(b)
				if n != 25_000 {
					cfg.memBudget = int64(len(body)) + anonymizeBytesPerRow*int64(n)
				}
				benchRequests(b, startServer(b, cfg), "/anonymize?"+q, body, n)
			})
		}
	}
}

// BenchmarkAssessRequest is one whole POST /assess through serve — body
// read, categorization, the risk vector, the summary — for each measure of
// the anonymize_native workload on an R25A4U and an R1000000A4U table.
func BenchmarkAssessRequest(b *testing.B) {
	for _, n := range []int{25_000, 1_000_000} {
		for _, q := range requestMeasures {
			b.Run(fmt.Sprintf("n=%d/%s", n, strings.SplitN(strings.TrimPrefix(q, "measure="), "&", 2)[0]), func(b *testing.B) {
				benchRequests(b, startServer(b, testConfig(b)), "/assess?"+q, requestTable(b, n), n)
			})
		}
	}
}

// BenchmarkJobRequest is one durable job as its client sees it — submit,
// poll until done, fetch the result — through serve, for each measure of the
// jobs_durable workload on an R25A4U table, with a one-worker manager.
func BenchmarkJobRequest(b *testing.B) {
	var body bytes.Buffer
	if err := mdb.WriteCSV(&body, synth.Generate(synth.Config{Tuples: 25000, QIs: 4, Dist: synth.DistU, Seed: 459})); err != nil {
		b.Fatal(err)
	}
	serve := func(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	for _, q := range []string{
		"measure=k-anonymity&k=3&threshold=0.5",
		"measure=re-identification&threshold=0.05",
		"measure=individual-risk&threshold=0.05",
	} {
		b.Run(strings.SplitN(strings.TrimPrefix(q, "measure="), "&", 2)[0], func(b *testing.B) {
			_, h := jobsServer(b, b.TempDir(), nil, func(c *config) { c.jobWorkers = 1 })
			b.SetBytes(int64(body.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := serve(h, http.MethodPost, "/jobs/anonymize?"+q, body.Bytes())
				var j struct{ ID, State string }
				if err := json.Unmarshal(rec.Body.Bytes(), &j); rec.Code != http.StatusAccepted || err != nil {
					b.Fatalf("submit = %d (%v): %.200s", rec.Code, err, rec.Body)
				}
				for j.State != "done" {
					time.Sleep(time.Millisecond)
					rec = serve(h, http.MethodGet, "/jobs/"+j.ID, nil)
					if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil || j.State == "failed" {
						b.Fatalf("status = %d (%v): %.200s", rec.Code, err, rec.Body)
					}
				}
				if rec = serve(h, http.MethodGet, "/jobs/"+j.ID+"/result", nil); rec.Code != http.StatusOK {
					b.Fatalf("result = %d: %.200s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// heldMeasure reads the live heap the first time a cycle assesses, with the
// working table in hand, then scores every tuple 0, so the cycle ends there.
type heldMeasure struct{ heap int64 }

func (*heldMeasure) Name() string { return "held" }

func (m *heldMeasure) Assess(d *vadasa.Dataset, _ vadasa.Semantics) ([]float64, error) {
	if m.heap == 0 {
		m.heap = liveHeap()
	}
	return make([]float64, len(d.Rows)), nil
}

// liveHeap returns the bytes the heap holds once a collection has run.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// In the middle of a 10⁵-row /anonymize the daemon holds its copy of the
// body and one table parsed from it, which the cycle works on: no second
// copy of the body as text, no second table.
func TestAnonymizeHoldsOneTable(t *testing.T) {
	m := &heldMeasure{}
	cfg := testConfig(t)
	cfg.extraMeasures = map[string]func() vadasa.RiskMeasure{"held": func() vadasa.RiskMeasure { return m }}
	h := startServer(t, cfg).handler
	src := synth.Generate(synth.Config{Tuples: 100_000, QIs: 4, Dist: synth.DistU, Seed: 459})
	var body bytes.Buffer
	if err := mdb.WriteCSV(&body, src); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	table := src.Clone() // what one table holds beside its text
	tableBytes := liveHeap() - before
	runtime.KeepAlive(src)
	runtime.KeepAlive(table)

	before = liveHeap()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/anonymize?measure=held", bytes.NewReader(body.Bytes())))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %.200s", rec.Code, rec.Body)
	}
	held, limit := m.heap-before, int64(body.Len())+tableBytes*3/2
	t.Logf("held %d bytes mid-cycle: a %d-byte body and a %d-byte table", held, body.Len(), tableBytes)
	if held > limit {
		t.Fatalf("the daemon held %d bytes mid-cycle, over the %d of its body and one table", held, limit)
	}
}
