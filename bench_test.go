// Benchmarks regenerating the paper's evaluation (Section 5), one family per
// table/figure, at bench-friendly scale; `go run ./cmd/experiments` produces
// the full-scale tables. Custom metrics report the figures' y-axes:
// nulls/op for Figures 7a/7c/7d, loss%/op for Figure 7b, and riskeval-ms/op
// (the dominant component of Figure 7e/7f) for the timing figures.
package vadasa

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/cluster"
	"vadasa/internal/datalog"
	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// benchScale shrinks the paper's dataset sizes for the bench suite.
const benchScale = 2500

func benchDataset(dist synth.Dist, seed int64) *mdb.Dataset {
	return synth.Generate(synth.Config{Tuples: benchScale, QIs: 4, Dist: dist, Seed: seed})
}

func runCycle(b *testing.B, d *mdb.Dataset, assessor risk.Assessor, sem mdb.Semantics) *anon.Result {
	b.Helper()
	res, err := anon.Run(d, anon.Config{
		Assessor:   assessor,
		Threshold:  0.5,
		Anonymizer: anon.LocalSuppression{Choice: anon.AttrMostSelective},
		Semantics:  sem,
		Order:      anon.OrderLessSignificantFirst,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig7aNullsByK: nulls injected by k-anonymity threshold, per
// distribution family (Figure 7a) — the loss%/op metric doubles as
// Figure 7b.
func BenchmarkFig7aNullsByK(b *testing.B) {
	dists := []struct {
		name string
		dist synth.Dist
		seed int64
	}{{"W", synth.DistW, 3}, {"U", synth.DistU, 4}, {"V", synth.DistV, 5}}
	for _, dc := range dists {
		d := benchDataset(dc.dist, dc.seed)
		for k := 2; k <= 5; k++ {
			b.Run(fmt.Sprintf("%s/k=%d", dc.name, k), func(b *testing.B) {
				var res *anon.Result
				for i := 0; i < b.N; i++ {
					res = runCycle(b, d, risk.KAnonymity{K: k}, mdb.MaybeMatch)
				}
				b.ReportMetric(float64(res.NullsInjected), "nulls/op")
				b.ReportMetric(100*res.InfoLoss, "loss%/op")
			})
		}
	}
}

// BenchmarkFig7cSemantics: maybe-match vs standard labelled-null semantics
// (Figure 7c) — the standard semantics proliferates nulls.
func BenchmarkFig7cSemantics(b *testing.B) {
	d := benchDataset(synth.DistU, 4)
	for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
		b.Run(sem.String(), func(b *testing.B) {
			var res *anon.Result
			for i := 0; i < b.N; i++ {
				res = runCycle(b, d, risk.KAnonymity{K: 2}, sem)
			}
			b.ReportMetric(float64(res.NullsInjected), "nulls/op")
		})
	}
}

// BenchmarkFig7dRelationships: nulls injected as control relationships grow
// (Figure 7d).
func BenchmarkFig7dRelationships(b *testing.B) {
	d := benchDataset(synth.DistU, 4)
	var ids []string
	for _, r := range d.Rows {
		ids = append(ids, r.Values[0].Constant())
	}
	for _, nRels := range []int{0, 10, 20, 30, 40} {
		b.Run(fmt.Sprintf("rels=%d", nRels), func(b *testing.B) {
			assessor := risk.Assessor(risk.KAnonymity{K: 2})
			if nRels > 0 {
				g := cluster.NewGraph()
				if err := cluster.StarOwnerships(g, ids, nRels, 4, 7); err != nil {
					b.Fatal(err)
				}
				assessor = cluster.Assessor{Base: assessor, Graph: g}
			}
			var res *anon.Result
			for i := 0; i < b.N; i++ {
				res = runCycle(b, d, assessor, mdb.MaybeMatch)
			}
			b.ReportMetric(float64(res.NullsInjected), "nulls/op")
		})
	}
}

// BenchmarkFig7eBySize: full-cycle time by dataset size and risk technique
// (Figure 7e); the riskeval-ms metric is the dotted line. The 25 000-row tier
// and the two attribute-disclosure rows are the only record of those two
// measures' scaling: no request-level workload runs them.
func BenchmarkFig7eBySize(b *testing.B) {
	for _, tuples := range []int{600, 1250, 2500, 5000, 25000} {
		d := synth.Generate(synth.Config{Tuples: tuples, QIs: 4, Dist: synth.DistU, Seed: 4})
		for _, a := range []risk.Assessor{
			risk.IndividualRisk{Estimator: risk.MonteCarlo, Samples: 200, Seed: 1},
			risk.KAnonymity{K: 2},
			risk.SUDA{Threshold: 3},
			risk.LDiversity{L: 2, Sensitive: "ResidentialRevenue"},
			risk.TCloseness{T: 0.3, Sensitive: "ResidentialRevenue"},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", tuples, a.Name()), func(b *testing.B) {
				var res *anon.Result
				for i := 0; i < b.N; i++ {
					res = runCycle(b, d, a, mdb.MaybeMatch)
				}
				b.ReportMetric(float64(res.RiskEvalTime.Milliseconds()), "riskeval-ms/op")
			})
		}
	}
}

// BenchmarkFig7fByQIs: full-cycle time by number of quasi-identifiers
// (Figure 7f).
func BenchmarkFig7fByQIs(b *testing.B) {
	for _, qis := range []int{4, 5, 6, 8, 9} {
		d := synth.Generate(synth.Config{Tuples: benchScale, QIs: qis, Dist: synth.DistW, Seed: 6})
		for _, a := range []risk.Assessor{
			risk.IndividualRisk{Estimator: risk.MonteCarlo, Samples: 200, Seed: 1},
			risk.KAnonymity{K: 2},
			risk.SUDA{Threshold: 3},
		} {
			b.Run(fmt.Sprintf("q=%d/%s", qis, a.Name()), func(b *testing.B) {
				var res *anon.Result
				for i := 0; i < b.N; i++ {
					res = runCycle(b, d, a, mdb.MaybeMatch)
				}
				b.ReportMetric(float64(res.RiskEvalTime.Milliseconds()), "riskeval-ms/op")
			})
		}
	}
}

// Substrate micro-benchmarks.

// BenchmarkGrouping measures the maybe-match grouping engine every risk
// measure sits on.
func BenchmarkGrouping(b *testing.B) {
	d := benchDataset(synth.DistU, 4)
	// Inject a few nulls to exercise the null-row path.
	for i := 0; i < 20; i++ {
		d.Rows[i*7].Values[1+(i%4)] = d.Nulls.Fresh()
	}
	qi := d.QuasiIdentifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdb.ComputeGroups(d, qi, mdb.MaybeMatch)
	}
}

// BenchmarkReadCSV measures intake of the 25 000-row R25A4U table, the size
// every request of the anonymize_native workload posts.
func BenchmarkReadCSV(b *testing.B) {
	d, err := synth.ByName("R25A4U")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdb.ReadCSV(bytes.NewReader(buf.Bytes()), d.Name, d.Attrs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteCSV measures the release write — what /anonymize, a job's
// output file and a stream release spend on it — on the same table.
func BenchmarkWriteCSV(b *testing.B) {
	d, err := synth.ByName("R25A4U")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mdb.WriteCSV(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetClone measures the copy every anonymization cycle starts
// from, on the same table.
func BenchmarkDatasetClone(b *testing.B) {
	d, err := synth.ByName("R25A4U")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Clone()
	}
}

// nullRowsDataset builds 5n rows over four quasi-identifiers with four
// values each, the first n of them carrying one labelled null at a rotating
// position: two null rows agree on their shared constants in about 5 % of
// the pairs, the density the R25A4V cycle shows.
func nullRowsDataset(n int) *mdb.Dataset {
	d := synth.Generate(synth.Config{Tuples: 5 * n, QIs: 4, Dist: synth.DistU, Seed: 4})
	qi := d.QuasiIdentifiers()
	rng := rand.New(rand.NewSource(int64(n)))
	for pos, r := range d.Rows {
		for _, a := range qi {
			r.Values[a] = mdb.Const(string(rune('a' + rng.Intn(4))))
		}
		if pos < n {
			r.Values[qi[pos%len(qi)]] = d.Nulls.Fresh()
		}
	}
	return d
}

// BenchmarkGroupIndexCommitNullRows measures one Commit over a window
// holding n null-bearing rows (and 4n complete ones): a row is appended on
// the clock and withdrawn off it, so every Commit re-derives the whole
// maybe-match null phase over the same n rows. An all-pairs null scan grows
// 16× from n = 1000 to n = 4000; the bucketed one grows with the rows plus
// the matches it has to add up.
func BenchmarkGroupIndexCommitNullRows(b *testing.B) {
	for _, n := range []int{250, 1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx := context.Background()
			d := nullRowsDataset(n)
			x, err := mdb.BuildGroupIndex(ctx, d, d.QuasiIdentifiers(), mdb.MaybeMatch)
			if err != nil {
				b.Fatal(err)
			}
			extra := d.Rows[len(d.Rows)-1].Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Append(extra)
				if err := x.AppendRow(x.Len()); err != nil {
					b.Fatal(err)
				}
				if _, err := x.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				d.Rows = d.Rows[:len(d.Rows)-1]
				if err := x.DeleteRow(x.Len() - 1); err != nil {
					b.Fatal(err)
				}
				if _, err := x.Commit(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkComputeGroupsNulls measures a full regroup of a null-heavy
// dataset (4 000 null-bearing rows of 20 000) — what /assess and the utility
// report pay on anonymized data.
func BenchmarkComputeGroupsNulls(b *testing.B) {
	d := nullRowsDataset(4000)
	qi := d.QuasiIdentifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdb.ComputeGroups(d, qi, mdb.MaybeMatch)
	}
}

// BenchmarkGroupIndexDeleteRows measures one batch deletion of k rows from
// an index over a standing window — the oldest k, as a sliding window
// withdraws them, and k scattered ones, which take the position search.
// Between iterations the rows are re-appended and committed off the clock.
// The ns/row metric is per window row: DeleteRows is one sweep over the
// index whatever k is, so the figure stays level as the window grows.
func BenchmarkGroupIndexDeleteRows(b *testing.B) {
	const k = 1000
	for _, window := range []int{5000, 20000} {
		for _, pick := range []string{"oldest", "scattered"} {
			b.Run(fmt.Sprintf("window=%d/k=%d/%s", window, k, pick), func(b *testing.B) {
				ctx := context.Background()
				d := synth.Generate(synth.Config{Tuples: window, QIs: 4, Dist: synth.DistU, Seed: 4})
				positions := make([]int, k)
				for i := range positions {
					positions[i] = i
					if pick == "scattered" {
						positions[i] = i * (window / k)
					}
				}
				x, err := mdb.BuildGroupIndex(ctx, d, d.QuasiIdentifiers(), mdb.MaybeMatch)
				if err != nil {
					b.Fatal(err)
				}
				deleted := make([]*mdb.Row, k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j, pos := range positions {
						deleted[j] = d.Rows[pos]
					}
					d.Rows = mdb.RemovePositions(d.Rows, positions)
					b.StartTimer()
					if err := x.DeleteRows(positions); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					for _, r := range deleted {
						d.Append(r)
						if err := x.AppendRow(x.Len()); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := x.Commit(ctx); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(window), "ns/row")
			})
		}
	}
}

// BenchmarkGroupIndexCompact measures the Commit that compacts an index: over
// R25A4V, the rows of the smallest groups — just enough of them that the
// groups they empty outnumber the rest — each get one cell suppressed, off
// the clock; the Commit that folds that in finds more dead groups than live
// and compacts.
func BenchmarkGroupIndexCompact(b *testing.B) {
	ctx := context.Background()
	base := synth.Generate(synth.Config{Tuples: 25000, QIs: 4, Dist: synth.DistV, Seed: 4})
	qi := base.QuasiIdentifiers()
	infos := mdb.ComputeGroups(base, qi, mdb.MaybeMatch)
	rowsOf := make(map[int]int) // group size → rows in groups of that size
	for _, g := range infos {
		rowsOf[g.Freq]++
	}
	groups := 0
	for f, n := range rowsOf {
		groups += n / f
	}
	limit, dead := 0, 0
	for dead <= groups-dead {
		limit++
		dead += rowsOf[limit] / limit
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := base.Clone()
		x, err := mdb.BuildGroupIndex(ctx, d, qi, mdb.MaybeMatch)
		if err != nil {
			b.Fatal(err)
		}
		for pos, g := range infos {
			if g.Freq <= limit {
				d.Rows[pos].Values[qi[0]] = d.Nulls.Fresh()
				if err := x.SuppressCell(pos, qi[0]); err != nil {
					b.Fatal(err)
				}
			}
		}
		before := x.EstimatedBytes()
		b.StartTimer()
		if _, err := x.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		if x.EstimatedBytes() >= before {
			b.Fatal("the commit did not compact")
		}
	}
}

// BenchmarkSUDAMSUs measures minimal-sample-unique enumeration.
func BenchmarkSUDAMSUs(b *testing.B) {
	d := synth.Generate(synth.Config{Tuples: benchScale, QIs: 6, Dist: synth.DistW, Seed: 9})
	qi := d.QuasiIdentifiers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := risk.MSUsContext(context.Background(), d, qi, 3, mdb.MaybeMatch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndividualRisk compares the three posterior estimators on one
// table with its sampling weights scaled ×1, ×10² and ×10⁴: the same groups
// with a smaller p = f/ΣW, where an estimate whose cost follows ΣW shows.
func BenchmarkIndividualRisk(b *testing.B) {
	for _, scale := range []float64{1, 1e2, 1e4} {
		d := benchDataset(synth.DistU, 4)
		for _, r := range d.Rows {
			r.Weight *= scale
		}
		for _, est := range []risk.Estimator{risk.Ratio, risk.PosteriorSeries, risk.MonteCarlo} {
			b.Run(fmt.Sprintf("%s/w=x%g", est, scale), func(b *testing.B) {
				a := risk.IndividualRisk{Estimator: est, Samples: 200, Seed: 1}
				for i := 0; i < b.N; i++ {
					if _, err := a.Assess(d, mdb.MaybeMatch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkReasoningEngine measures the Datalog± substrate on a recursive
// program with aggregation (the company-control rules).
func BenchmarkReasoningEngine(b *testing.B) {
	prog, err := datalog.Parse(`
		ctr(X,X) :- own(X,Y,W).
		rel(X,Y) :- ctr(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.
		ctr(X,Y) :- rel(X,Y).
	`)
	if err != nil {
		b.Fatal(err)
	}
	// A chain of holdings with side ownership, loaded afresh for every run
	// (a run evaluates in its database) outside the timer.
	load := func() *datalog.Database {
		edb := datalog.NewDatabase()
		for i := 0; i < 100; i++ {
			edb.Add("own",
				datalog.Str(fmt.Sprintf("c%d", i)),
				datalog.Str(fmt.Sprintf("c%d", i+1)),
				datalog.Num(0.6))
			edb.Add("own",
				datalog.Str(fmt.Sprintf("c%d", i)),
				datalog.Str(fmt.Sprintf("c%d", (i+50)%101)),
				datalog.Num(0.3))
		}
		return edb
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edb := load()
		b.StartTimer()
		if _, err := datalog.Run(prog, edb, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnonymizationCycle measures the end-to-end cycle at a fixed
// setting (the headline workload), under the default most-selective-first
// attribute choice and under max-gain, which groups the step context's code
// table once per attribute and iteration (FreqWithout).
func BenchmarkAnonymizationCycle(b *testing.B) {
	d := benchDataset(synth.DistV, 5)
	for _, choice := range []anon.AttrChoice{anon.AttrMostSelective, anon.AttrMaxGain} {
		b.Run(choice.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := anon.Run(d, anon.Config{
					Assessor:   risk.KAnonymity{K: 3},
					Threshold:  0.5,
					Anonymizer: anon.LocalSuppression{Choice: choice},
					Order:      anon.OrderLessSignificantFirst,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Declarative-path benchmarks at the paper's full dataset sizes. Unlike the
// bench-scale families above, these run the risk programs through the
// reasoning engine at n up to 500000 tuples under a 1 GiB governor budget
// (a representative production -mem-budget): the largest datapoint doubles
// as the capacity gate for the evaluator's columnar fact store.

var declarativeSizes = []int{50_000, 200_000, 500_000}

func declarativeData(n int) *mdb.Dataset {
	return synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 4})
}

// runDeclarativeRisk times one run of prog over d's tuple facts, loaded
// outside the timer: a run evaluates in its database, so each gets its own.
func runDeclarativeRisk(b *testing.B, prog *datalog.Program, d *mdb.Dataset,
	root *govern.Governor, wantFacts int) {
	b.Helper()
	b.StopTimer()
	edb := datalog.NewDatabase()
	programs.TupleFacts(edb, d)
	b.StartTimer()
	eg := root.Child("evaluation", govern.Limits{})
	defer eg.Close()
	res, err := datalog.Run(prog, edb, &datalog.Options{MaxFacts: 10_000_000, Governor: eg})
	if err != nil {
		b.Fatal(err)
	}
	if got := len(res.Facts("riskout")); got != wantFacts {
		b.Fatalf("riskout = %d facts, want %d", got, wantFacts)
	}
}

// BenchmarkDeclarativeKAnonymity is Algorithm 4 through the reasoning
// engine: per-combination mcount plus the threshold case split.
func BenchmarkDeclarativeKAnonymity(b *testing.B) {
	for _, n := range declarativeSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prog, d := programs.KAnonymity(4, 2), declarativeData(n)
			root := govern.New("bench", govern.Limits{MaxBytes: 1 << 30})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runDeclarativeRisk(b, prog, d, root, n)
			}
		})
	}
}

// BenchmarkDeclarativeReIdentification is Algorithm 3 through the
// reasoning engine: msum of sampling weights per combination, risk 1/ΣW.
func BenchmarkDeclarativeReIdentification(b *testing.B) {
	for _, n := range declarativeSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			prog, d := programs.ReIdentification(4), declarativeData(n)
			root := govern.New("bench", govern.Limits{MaxBytes: 1 << 30})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runDeclarativeRisk(b, prog, d, root, n)
			}
		})
	}
}

// BenchmarkKAnonymityNativeVsDeclarative times the native assessor and the
// declarative program on the same 50k dataset and reports their ratio —
// the price of full explainability, tracked release over release as the
// decl-vs-native-ratio metric in BENCH_*.json.
func BenchmarkKAnonymityNativeVsDeclarative(b *testing.B) {
	const n = 50_000
	d := synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 4})
	prog := programs.KAnonymity(4, 2)
	native := risk.KAnonymity{K: 2}
	var tNative, tDecl time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := native.Assess(d, mdb.MaybeMatch); err != nil {
			b.Fatal(err)
		}
		tNative += time.Since(t0)
		edb := datalog.NewDatabase()
		programs.TupleFacts(edb, d)
		t1 := time.Now()
		res, err := datalog.Run(prog, edb, &datalog.Options{MaxFacts: 10_000_000})
		if err != nil {
			b.Fatal(err)
		}
		tDecl += time.Since(t1)
		if got := len(res.Facts("riskout")); got != n {
			b.Fatalf("riskout = %d facts, want %d", got, n)
		}
	}
	if tNative > 0 {
		b.ReportMetric(float64(tDecl)/float64(tNative), "decl-vs-native-ratio")
	}
}
