package datalog_test

// Regression benchmarks for the evaluator (interned columnar store,
// per-rule join indexes, partitioned deltas): the declarative k-anonymity
// workload at n=50k, sequential; BenchmarkViolationDedup guards the
// interned-id violation key against sliding back to string concatenation.

import (
	"testing"

	"vadasa/internal/datalog"
	"vadasa/internal/programs"
	"vadasa/internal/synth"
)

func kAnonymityWorkload(n int) (*datalog.Program, *datalog.Database) {
	d := synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 4})
	edb := datalog.NewDatabase()
	programs.TupleFacts(edb, d)
	return programs.KAnonymity(4, 2), edb
}

// BenchmarkOverhauledEvaluatorKAnonymity50k runs the workload through the
// engine, sequentially (the parallel datapoints live in the root bench
// suite).
func BenchmarkOverhauledEvaluatorKAnonymity50k(b *testing.B) {
	prog, edb := kAnonymityWorkload(50_000)
	opt := &datalog.Options{MaxFacts: 10_000_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := datalog.BulkCopy(edb)
		b.StartTimer()
		res, err := datalog.Run(prog, db, opt)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(res.Facts("riskout")); got != 50_000 {
			b.Fatalf("riskout = %d facts, want 50000", got)
		}
	}
}

// BenchmarkViolationDedup pins the allocation profile of EGD violation
// deduplication. The workload derives one violation per ordered pair of
// distinct capacities within a group, re-derived on every chase pass, so a
// per-candidate string key would dominate the profile.
func BenchmarkViolationDedup(b *testing.B) {
	edb := datalog.NewDatabase()
	for g := 0; g < 20; g++ {
		for v := 0; v < 12; v++ {
			edb.Add("cap", datalog.Num(float64(g)), datalog.Num(float64(g*100+v)))
		}
	}
	prog, err := datalog.Parse(`A = B :- cap(X,A), cap(X,B).`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := datalog.BulkCopy(edb)
		b.StartTimer()
		res, runErr := datalog.Run(prog, db, nil)
		if runErr != nil {
			b.Fatal(runErr)
		}
		// Ordered pairs of distinct capacities per group: the dedup key
		// keeps (a,b) and (b,a) separate.
		if got := len(res.Violations); got != 20*12*11 {
			b.Fatalf("violations = %d, want %d", got, 20*12*11)
		}
	}
}

// BenchmarkDatabaseLoad is Database.Add alone over pre-built tuples — the
// quantity the request benchmark reports as datalog.load_ms: 50k six-column
// rows with ~75k distinct numbers (row ids, weights) and a few dozen strings.
func BenchmarkDatabaseLoad(b *testing.B) {
	d := synth.Generate(synth.Config{Tuples: 50_000, QIs: 4, Dist: synth.DistU, Seed: 4})
	qi := d.QuasiIdentifiers()
	args := make([][]datalog.Val, len(d.Rows))
	for i, r := range d.Rows {
		a := append(make([]datalog.Val, 0, len(qi)+2), datalog.Num(float64(r.ID)))
		for _, j := range qi {
			a = append(a, datalog.Str(r.Values[j].Constant()))
		}
		args[i] = append(a, datalog.Num(r.Weight))
	}
	b.Run("n=50000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			edb := datalog.NewDatabase()
			for _, a := range args {
				edb.Add("tuple", a...)
			}
			if edb.Len() != len(args) {
				b.Fatalf("loaded %d facts, want %d", edb.Len(), len(args))
			}
		}
	})
}

// BenchmarkTupleFacts is the microdata-to-facts bridge of /explain and the
// declarative risk path, through the same loader.
func BenchmarkTupleFacts(b *testing.B) {
	d := synth.Generate(synth.Config{Tuples: 50_000, QIs: 4, Dist: synth.DistU, Seed: 4})
	b.Run("n=50000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			edb := datalog.NewDatabase()
			programs.TupleFacts(edb, d)
			if edb.Len() != len(d.Rows) {
				b.Fatalf("loaded %d facts, want %d", edb.Len(), len(d.Rows))
			}
		}
	})
}
