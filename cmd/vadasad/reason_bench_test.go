package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"vadasa/internal/datalog"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/synth"
)

// reasonBenchPrograms are the three programs of the reason_declarative
// workload (benchmark/inputs.go:declProgram): k-anonymity folds mcount,
// which never sorts; the other two fold msum in contributor-key order.
var reasonBenchPrograms = []struct {
	name string
	prog *datalog.Program
	// allocsPerRow is the tier-1 ceiling of TestReasonRequestAllocs: what
	// a 5 000-fact request measured when the ceiling was set (0.27, 0.25,
	// 0.38: the msum folds rank contributor ids and build no string, and
	// the reply renders each distinct value once), plus 20 %. A string per
	// contributor or per reply cell adds one allocation per row or more.
	allocsPerRow float64
}{
	{"kanonymity", programs.KAnonymity(4, 3), 0.32},
	{"reidentification", programs.ReIdentification(4), 0.31},
	{"individualrisk", programs.IndividualRisk(4), 0.46},
}

// reasonBenchBody renders the /reason request the reason_declarative
// workload sends (benchmark/inputs.go:reasonBody): a risk program over an
// R<n>A4U table as tuple(I, V1..V4, W) facts, riskout queried.
func reasonBenchBody(tb testing.TB, prog *datalog.Program, n int) []byte {
	tb.Helper()
	d := synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 459})
	var b bytes.Buffer
	b.WriteString(`{"program":`)
	b.WriteString(strconv.Quote(prog.String()))
	b.WriteString(`,"query":["riskout"],"facts":{"tuple":[`)
	qi := d.QuasiIdentifiers()
	for i, r := range d.Rows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d", r.ID)
		for _, j := range qi {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(r.Values[j].Constant()))
		}
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(r.Weight, 'g', -1, 64))
		b.WriteByte(']')
	}
	b.WriteString(`]}}`)
	return b.Bytes()
}

func postReason(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reason", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("status = %d: %.200s", rec.Code, rec.Body)
	}
}

// BenchmarkReasonRequest is one whole POST /reason through serve — body
// read, envelope decode, lint, fact load, evaluation, response encoding —
// for each program and request size of the reason_declarative workload.
func BenchmarkReasonRequest(b *testing.B) {
	for _, p := range reasonBenchPrograms {
		for _, n := range []int{25000, 50000} {
			b.Run(fmt.Sprintf("%s/n=%d", p.name, n), func(b *testing.B) {
				h := testServer(b)
				body := reasonBenchBody(b, p.prog, n)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					postReason(b, h, body)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(n), "allocs/row")
			})
		}
	}
}

// BenchmarkExplainRequest is one whole POST /explain through serve — body
// read, categorization, the chase, response encoding — for each shape of the
// reason_declarative workload: a 25k W/U/V table under k-anonymity and
// re-identification, the tuple a row from the middle of the table.
func BenchmarkExplainRequest(b *testing.B) {
	for _, dist := range []synth.Dist{synth.DistW, synth.DistU, synth.DistV} {
		d := synth.Generate(synth.Config{Tuples: 25000, QIs: 4, Dist: dist, Seed: 459})
		var body bytes.Buffer
		if err := mdb.WriteCSV(&body, d); err != nil {
			b.Fatal(err)
		}
		tuple := d.Rows[len(d.Rows)/2].ID
		for _, m := range []string{"k-anonymity&k=3", "re-identification"} {
			target := fmt.Sprintf("/explain?measure=%s&tuple=%d", m, tuple)
			b.Run(dist.String()+"/"+strings.SplitN(m, "&", 2)[0], func(b *testing.B) {
				h := testServer(b)
				b.SetBytes(int64(body.Len()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body.Bytes())))
					if rec.Code != http.StatusOK {
						b.Fatalf("status = %d: %.200s", rec.Code, rec.Body)
					}
				}
			})
		}
	}
}

// TestReasonRequestAllocs holds a whole /reason to an allocation ceiling per
// program: a value boxed per fact, per match or per contributor anywhere
// between the request bytes and the response bytes adds at least one
// allocation per row and fails here, not in a benchmark nobody gates on.
func TestReasonRequestAllocs(t *testing.T) {
	const n = 5000
	for _, p := range reasonBenchPrograms {
		t.Run(p.name, func(t *testing.T) {
			h := testServer(t)
			body := reasonBenchBody(t, p.prog, n)
			perRow := testing.AllocsPerRun(3, func() { postReason(t, h, body) }) / n
			t.Logf("%.3f allocs/row", perRow)
			if perRow > p.allocsPerRow {
				t.Fatalf("%.3f allocs/row, ceiling %.2f", perRow, p.allocsPerRow)
			}
		})
	}
}
