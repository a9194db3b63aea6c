package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"vadasa/internal/programs"
	"vadasa/internal/synth"
)

// reasonBenchBody renders the /reason request the reason_declarative
// workload sends (benchmark/inputs.go:reasonBody): the k-anonymity program
// over an R<n>A4U table as tuple(I, V1..V4, W) facts, riskout queried.
func reasonBenchBody(tb testing.TB, n int) []byte {
	tb.Helper()
	d := synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 459})
	var b bytes.Buffer
	b.WriteString(`{"program":`)
	b.WriteString(strconv.Quote(programs.KAnonymity(4, 3).String()))
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

// BenchmarkReasonRequest is one whole POST /reason through serve — body
// read, envelope decode, lint, fact load, evaluation, response encoding —
// at the two request sizes of the reason_declarative workload.
func BenchmarkReasonRequest(b *testing.B) {
	for _, n := range []int{25000, 50000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := testServer(b)
			body := reasonBenchBody(b, n)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reason", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d: %.200s", rec.Code, rec.Body)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(n), "allocs/row")
		})
	}
}
