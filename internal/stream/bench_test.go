package stream

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// rowCells renders a dataset's rows the way a client submits them.
func rowCells(d *mdb.Dataset) [][]string {
	cells := make([][]string, len(d.Rows))
	for i, r := range d.Rows {
		cells[i] = make([]string, len(r.Values))
		for j, v := range r.Values {
			cells[i][j] = v.String()
		}
	}
	return cells
}

// BenchmarkStreamAppendRescore measures the streaming ingest path end to
// end: journaled (fsync'd) batch append plus the online incremental rescore
// of the growing window. The window accumulates across iterations, so the
// figure reflects maintenance cost against a realistic standing window, not
// an empty one.
func BenchmarkStreamAppendRescore(b *testing.B) {
	const batchRows = 64
	d := synth.Generate(synth.Config{Tuples: 2500, QIs: 4, Dist: synth.DistW, Seed: 11})
	cells := rowCells(d)
	batches := make([][][]string, 0, (len(cells)+batchRows-1)/batchRows)
	for lo := 0; lo < len(cells); lo += batchRows {
		batches = append(batches, cells[lo:min(lo+batchRows, len(cells))])
	}

	ctx := context.Background()
	s, err := Open(ctx, "bench", filepath.Join(b.TempDir(), "bench.wal"), Options{
		Assessor:  risk.KAnonymity{K: 2},
		Threshold: 0.5,
		Semantics: mdb.MaybeMatch,
		Attrs:     d.Attrs,
		MaxRows:   1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(ctx)

	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		if _, err := s.Append(ctx, fmt.Sprintf("b%d", i), batch); err != nil {
			b.Fatal(err)
		}
		rows += len(batch)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
	st := s.Status(ctx)
	if !st.RiskCurrent {
		b.Fatal("risk vector not maintained online during the benchmark")
	}
	b.ReportMetric(float64(st.OverThreshold), "overT-final")
}

// BenchmarkStreamWithdraw measures one journaled withdrawal of the oldest k
// rows of a standing window, online rescore included — the sliding-window
// step. Between iterations k fresh rows refill the window off the clock. The
// ns/row metric is per window row: a withdrawal is one sweep over the
// window, so the figure stays level as the window grows.
func BenchmarkStreamWithdraw(b *testing.B) {
	const k = 1000
	for _, window := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("window=%d/k=%d", window, k), func(b *testing.B) {
			d := synth.Generate(synth.Config{Tuples: window, QIs: 4, Dist: synth.DistU, Seed: 13})
			cells := rowCells(d)
			ctx := context.Background()
			s, err := Open(ctx, "bench", filepath.Join(b.TempDir(), "bench.wal"), Options{
				Assessor:  risk.KAnonymity{K: 2},
				Threshold: 0.5,
				Semantics: mdb.MaybeMatch,
				Attrs:     d.Attrs,
				MaxRows:   1 << 30,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close(ctx)
			// ids is the window in position order; every refill re-appends
			// the cells of the rows just withdrawn.
			var ids []int
			refill := func(name string, lo, hi int) {
				res, err := s.Append(ctx, name, cells[lo:hi])
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, res.RowIDs...)
			}
			refill("fill", 0, window)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Withdraw(ctx, ids[:k]); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ids = ids[k:]
				lo := i * k % window
				refill(fmt.Sprintf("r%d", i), lo, lo+k)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(window), "ns/row")
			if st := s.Status(ctx); !st.RiskCurrent || st.Rows != window {
				b.Fatalf("window not maintained online during the benchmark: %+v", st)
			}
		})
	}
}
