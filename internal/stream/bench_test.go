package stream

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

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
// end: journaled (fsync'd) batch append plus the fold of its rows into the
// window's group index. Nothing is scored on that path: the Status read after
// the timer stops re-scores the grown window once. The window accumulates
// across iterations, so the figure reflects index maintenance against a
// realistic standing window, not an empty one.
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
		b.Fatal("the grown window could not be scored")
	}
	b.ReportMetric(float64(st.OverThreshold), "overT-final")
}

// BenchmarkStreamWithdraw measures one journaled withdrawal of the oldest k
// rows of a standing window, their removal from the group index included —
// the sliding-window step; the window is scored only by the Status read at
// the end. Between iterations k fresh rows refill the window off the clock. The
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
				b.Fatalf("the window after the benchmark: %+v", st)
			}
		})
	}
}

// BenchmarkStreamCycle runs the daemon benchmark's stream_loop cycle in
// process, so a stream change is attributed before the daemon runs: over a
// standing 5 000-row k-anonymity window (k=3, a U table), one op acks the
// last release, withdraws the oldest 1 000 rows, appends 20 batches of 50 and
// releases. append_us and withdraw_us are per call; release_us is the gate,
// the publication and the ack.
func BenchmarkStreamCycle(b *testing.B) {
	const window, withdraw, appends, batch = 5000, 1000, 20, 50
	d := synth.Generate(synth.Config{Tuples: 4 * window, QIs: 4, Dist: synth.DistU, Seed: 17})
	cells := rowCells(d)
	ctx := context.Background()
	s, err := Open(ctx, "bench", filepath.Join(b.TempDir(), "bench.wal"), Options{
		Assessor:  risk.KAnonymity{K: 3},
		Threshold: 0.5,
		Semantics: mdb.MaybeMatch,
		Attrs:     d.Attrs,
		MaxRows:   1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(ctx)

	var ids []int
	next, nbatch := 0, 0
	add := func(n int) {
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = cells[next%len(cells)]
			next++
		}
		nbatch++
		res, err := s.Append(ctx, fmt.Sprintf("b%d", nbatch), rows)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, res.RowIDs...)
	}
	for len(ids) < window+withdraw {
		add(withdraw)
	}
	info, err := s.Release(ctx)
	if err != nil {
		b.Fatal(err)
	}

	var appendT, withdrawT, releaseT time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := s.Ack(ctx, info.Seq); err != nil {
			b.Fatal(err)
		}
		releaseT += time.Since(start)
		start = time.Now()
		if err := s.Withdraw(ctx, ids[:withdraw]); err != nil {
			b.Fatal(err)
		}
		withdrawT += time.Since(start)
		ids = ids[withdraw:]
		start = time.Now()
		for j := 0; j < appends; j++ {
			add(batch)
		}
		appendT += time.Since(start)
		start = time.Now()
		if info, err = s.Release(ctx); err != nil {
			b.Fatal(err)
		}
		releaseT += time.Since(start)
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(appendT.Microseconds())/n/appends, "append_us")
	b.ReportMetric(float64(withdrawT.Microseconds())/n, "withdraw_us")
	b.ReportMetric(float64(releaseT.Microseconds())/n, "release_us")
}

// BenchmarkStreamOpen measures a restart's reopen of one stream journal
// shaped like the daemon benchmark's stream_loop after its fill: 10 cycles
// over a k-anonymity window (k=3, a U table), each acking the last release,
// withdrawing the oldest 1 000 rows once the window has passed 5 000,
// appending 20 batches of 50 rows and releasing; the last release stays
// unacked. An op is one Open, the replay of the whole journal; MB/s is over
// the journal's bytes and rows/s over the rows its batches carry.
func BenchmarkStreamOpen(b *testing.B) {
	const cycles, appends, batch, window, withdraw = 10, 20, 50, 5000, 1000
	d := synth.Generate(synth.Config{Tuples: cycles * appends * batch, QIs: 4, Dist: synth.DistU, Seed: 17})
	cells := rowCells(d)
	ctx := context.Background()
	path := filepath.Join(b.TempDir(), "loop.wal")
	opts := Options{Assessor: risk.KAnonymity{K: 3}, Threshold: 0.5, Semantics: mdb.MaybeMatch, Attrs: d.Attrs, MaxRows: 1 << 30}
	s, err := Open(ctx, "loop", path, opts)
	if err != nil {
		b.Fatal(err)
	}
	var ids []int
	var last *ReleaseInfo
	for c := 0; c < cycles; c++ {
		if last != nil {
			if err := s.Ack(ctx, last.Seq); err != nil {
				b.Fatal(err)
			}
		}
		if len(ids) > window {
			if err := s.Withdraw(ctx, ids[:withdraw]); err != nil {
				b.Fatal(err)
			}
			ids = ids[withdraw:]
		}
		for a := 0; a < appends; a++ {
			lo := (c*appends + a) * batch
			res, err := s.Append(ctx, fmt.Sprintf("b%d", c*appends+a), cells[lo:lo+batch])
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, res.RowIDs...)
		}
		if last, err = s.Release(ctx); err != nil {
			b.Fatal(err)
		}
	}
	s.w.Close() // as a crash leaves it: no drain checkpoint
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(ctx, "loop", path, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := s.Status(ctx); st.Rows != len(ids) || st.Published == nil || st.Published.Seq != cycles {
			b.Fatalf("the reopened stream: %+v", st)
		}
		s.w.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cycles*appends*batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
