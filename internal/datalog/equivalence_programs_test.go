package datalog_test

// The engine against the reference chase and its recorded digests over the
// declarative program library. This lives in the external test package
// so it can import internal/programs (which imports internal/datalog)
// without a cycle; EquivCheck itself is exported by export_test.go.

import (
	"fmt"
	"math/rand"
	"testing"

	"vadasa/internal/categorize"
	"vadasa/internal/datalog"
	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/synth"
)

func riskEDB(tuples int) *datalog.Database {
	edb := datalog.NewDatabase()
	d := synth.Generate(synth.Config{Tuples: tuples, QIs: 3, Dist: synth.DistU, Seed: 7})
	programs.TupleFacts(edb, d)
	return edb
}

// TestEquivalenceProgramLibrary drives every program constructor over a
// representative extensional database and holds it to the reference chase
// and the recorded digests at every worker count.
func TestEquivalenceProgramLibrary(t *testing.T) {
	cases := []struct {
		name string
		prog *datalog.Program
		edb  func() *datalog.Database
	}{
		{"reidentification", programs.ReIdentification(3), func() *datalog.Database { return riskEDB(300) }},
		{"kanonymity", programs.KAnonymity(3, 4), func() *datalog.Database { return riskEDB(300) }},
		{"individual-risk", programs.IndividualRisk(3), func() *datalog.Database { return riskEDB(250) }},
		{"individual-risk-posterior", programs.IndividualRiskPosterior(3), func() *datalog.Database { return riskEDB(250) }},
		{"weight-estimation", programs.WeightEstimation(3, 30), func() *datalog.Database { return riskEDB(250) }},
		{"control", programs.Control(), func() *datalog.Database {
			edb := datalog.NewDatabase()
			edges := []struct {
				x, y string
				w    float64
			}{
				{"a", "b", 0.6}, {"a", "e", 0.7}, {"b", "c", 0.3}, {"e", "c", 0.3},
				{"c", "d", 0.9}, {"d", "f", 0.4}, {"x", "f", 0.2},
			}
			for _, e := range edges {
				edb.Add("own", datalog.Str(e.x), datalog.Str(e.y), datalog.Num(e.w))
			}
			return edb
		}},
		{"cluster-risk", programs.ClusterRisk(), func() *datalog.Database {
			edb := datalog.NewDatabase()
			risks := map[string]float64{"a": 0.5, "b": 0.2, "c": 0.1, "x": 0.3}
			for _, e := range []string{"a", "b", "c", "x"} {
				edb.Add("entity", datalog.Str(e))
				edb.Add("risk", datalog.Str(e), datalog.Num(risks[e]))
			}
			for _, r := range [][2]string{{"a", "b"}, {"b", "c"}} {
				edb.Add("rel", datalog.Str(r[0]), datalog.Str(r[1]))
			}
			return edb
		}},
		{"recoding", programs.Recoding(), func() *datalog.Database {
			edb := datalog.NewDatabase()
			programs.HierarchyFacts(edb, hierarchy.ItalianGeography())
			for _, c := range []string{"Milano", "Torino", "Roma", "Napoli"} {
				edb.Add("needrecode", datalog.Str("Area"), datalog.Str(c))
			}
			return edb
		}},
		{"combinations", programs.Combinations(), func() *datalog.Database {
			edb := datalog.NewDatabase()
			edb.Add("tuplei", datalog.Str("t1"))
			edb.Add("tuplei", datalog.Str("t2"))
			for i, a := range []string{"area", "sector", "employees"} {
				edb.Add("qiord", datalog.Str(a), datalog.Num(float64(i+1)))
			}
			return edb
		}},
		{"categorization", programs.Categorization(), func() *datalog.Database {
			edb := datalog.NewDatabase()
			programs.CategorizationEDB(edb, "I&G",
				[]string{"Id", "Area", "Sector", "Employees", "Weight", "FluxCapacitance"},
				[]categorize.Entry{
					{Attr: "id", Category: mdb.Identifier},
					{Attr: "geographic area", Category: mdb.QuasiIdentifier},
					{Attr: "product sector", Category: mdb.QuasiIdentifier},
					{Attr: "employees", Category: mdb.QuasiIdentifier},
					{Attr: "sampling weight", Category: mdb.Weight},
				},
				[]categorize.Similarity{
					categorize.Exact{}, categorize.Normalized{}, categorize.TokenOverlap{Min: 0.5},
				})
			return edb
		}},
		{"suppression", programs.SuppressionProgram(3), func() *datalog.Database {
			d := synth.Figure5()
			edb := datalog.NewDatabase()
			programs.TupleFacts(edb, d)
			edb.Add("suppress2", datalog.Num(1))
			return edb
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			datalog.EquivCheck(t, tc.name, tc.prog, tc.edb(), nil)
			datalog.InsertionOrderCheck(t, tc.name, tc.prog, tc.edb(), nil)
		})
	}
}

// controlEDB is a random ownership graph dense enough that joint control
// takes several delta rounds to saturate.
func controlEDB(seed int64, companies, stakes int) *datalog.Database {
	rng := rand.New(rand.NewSource(seed))
	edb := datalog.NewDatabase()
	for i := 0; i < stakes; i++ {
		x, y := rng.Intn(companies), rng.Intn(companies)
		if x == y {
			continue
		}
		edb.Add("own", datalog.Str(fmt.Sprintf("c%d", x)), datalog.Str(fmt.Sprintf("c%d", y)),
			datalog.Num(float64(1+rng.Intn(6))/10))
	}
	return edb
}

// TestControlInsertionOrder holds the recursive msum of company control —
// groups that stay dirty across delta rounds, flushed round after round — to
// the reference model and to the recorded insertion order, provenance and
// explanations.
func TestControlInsertionOrder(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		edb := controlEDB(seed, 30, 140)
		name := fmt.Sprintf("control-seed%d", seed)
		datalog.EquivCheck(t, name, programs.Control(), edb, nil)
		datalog.InsertionOrderCheck(t, name, programs.Control(), edb, nil)
	}
}

// TestStatsExactAcrossWorkers pins the contract on EvalStats: match attempts,
// derived facts and rounds are exact and do not depend on the worker count.
// Walks count attempts privately and settle in batches, so a settle missed on
// any exit path — a partition's end, a ground rule's early stop, an EGD pass —
// shows here as a count that differs between one worker and two.
func TestStatsExactAcrossWorkers(t *testing.T) {
	tuples := func(n int) *datalog.Database {
		edb := datalog.NewDatabase()
		programs.TupleFacts(edb, synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 11}))
		return edb
	}
	cases := []struct {
		name     string
		prog     *datalog.Program
		edb      *datalog.Database
		attempts int64 // when the count can be told in advance
	}{
		{"kanonymity", programs.KAnonymity(4, 3), tuples(10000), 0},
		{"reidentification", programs.ReIdentification(4), tuples(10000), 0},
		{"individual-risk", programs.IndividualRisk(4), tuples(10000), 0},
		{"control", programs.Control(), controlEDB(5, 40, 200), 0},
		// A ground head stops its walk at the first witness (1 attempt), the
		// partitioned join tries every p row and the q row of every even K
		// (5 000 + 2 500), and the EGD, run after saturation, every p row and
		// its one index partner (5 000 + 5 000).
		{"early-stop-and-egd", datalog.MustParse(`
			nonempty("yes") :- p(_I,_K).
			pair(I,J) :- p(I,K), q(K,J).
			K1 = K2 :- p(I,K1), p(I,K2).`), func() *datalog.Database {
			edb := datalog.NewDatabase()
			for i := 0; i < 5000; i++ {
				edb.Add("p", datalog.Num(float64(i)), datalog.Num(float64(i%50)))
			}
			for k := 0; k < 50; k += 2 {
				edb.Add("q", datalog.Num(float64(k)), datalog.Str("j"))
			}
			return edb
		}(), 17501},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stats [2]datalog.EvalStats
			for i, workers := range []int{1, 2} {
				res, err := datalog.Run(tc.prog, datalog.BulkCopy(tc.edb), &datalog.Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				stats[i] = res.Stats
			}
			a, b := stats[0], stats[1]
			if a.MatchAttempts != b.MatchAttempts || a.DerivedFacts != b.DerivedFacts || a.Rounds != b.Rounds {
				t.Fatalf("stats depend on the worker count:\n  workers=1: %+v\n  workers=2: %+v", a, b)
			}
			if a.MatchAttempts == 0 || a.DerivedFacts == 0 || (tc.attempts != 0 && a.MatchAttempts != tc.attempts) {
				t.Fatalf("implausible stats, want %d attempts: %+v", tc.attempts, a)
			}
		})
	}
}
