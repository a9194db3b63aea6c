package datalog_test

// The semi-naive loop's first delta round starts each rule's windows at the
// row counts its seed evaluation saw (fixpoint's marks). These tests pin
// what that saves, exactly and at every worker count, and that nothing else
// moves: the model against the reference chase, and insertion order,
// provenance and explanations against the recorded digests.

import (
	"math/rand"
	"testing"

	"vadasa/internal/categorize"
	"vadasa/internal/datalog"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/synth"
)

// matchAttempts runs p over edb at each equivalence worker count and returns
// the match attempts, failing if they depend on the worker count.
func matchAttempts(t *testing.T, name string, p *datalog.Program, edb *datalog.Database) int64 {
	t.Helper()
	got := int64(-1)
	for _, workers := range datalog.EquivWorkers {
		res, err := datalog.Run(p, datalog.BulkCopy(edb), &datalog.Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		if got >= 0 && res.Stats.MatchAttempts != got {
			t.Fatalf("%s: %d match attempts at workers=%d, %d at workers=%d",
				name, res.Stats.MatchAttempts, workers, got, datalog.EquivWorkers[0])
		}
		got = res.Stats.MatchAttempts
	}
	return got
}

// reversed returns p with its rules in the opposite order, so every rule
// joining an aggregate comes before the rule that produces it.
func reversed(p *datalog.Program) *datalog.Program {
	q := &datalog.Program{}
	for i := len(p.Rules) - 1; i >= 0; i-- {
		q.Rules = append(q.Rules, p.Rules[i])
	}
	return q
}

// TestSeedPassJoinsEachTupleOnce: in the risk programs the aggregate and
// the rules joining it share a stratum, so the seed pass joins every tuple
// against the finished aggregate. Round 1 used to join them all again
// through the aggregate's delta (9n, 5n and 11n attempts). Written
// consumer-first, the consumers meet an empty aggregate in the seed pass and
// do their one join in round 1, as they did before the watermark.
func TestSeedPassJoinsEachTupleOnce(t *testing.T) {
	const n = 1500
	edb := datalog.NewDatabase()
	programs.TupleFacts(edb, synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: synth.DistU, Seed: 29}))
	cases := []struct {
		name                    string
		prog                    *datalog.Program
		perTuple, consumerFirst int64
	}{
		{"kanonymity", programs.KAnonymity(4, 3), 5, 7},
		{"reidentification", programs.ReIdentification(4), 3, 4},
		{"individual-risk", programs.IndividualRisk(4), 5, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range []struct {
				name     string
				prog     *datalog.Program
				perTuple int64
			}{
				{tc.name, tc.prog, tc.perTuple},
				{tc.name + "/consumer-first", reversed(tc.prog), tc.consumerFirst},
			} {
				if got := matchAttempts(t, v.name, v.prog, edb); got != v.perTuple*n {
					t.Errorf("%s: %d match attempts over %d tuples, want %d", v.name, got, n, v.perTuple*n)
				}
				datalog.EquivCheck(t, v.name, v.prog, edb, nil)
				datalog.InsertionOrderCheck(t, v.name, v.prog, edb, nil)
			}
		})
	}
	t.Run("recursive", watermarkRecursive)
}

// watermarkRecursive: in a recursive stratum round 1 has new rows to join,
// and the watermark removes only the prefix the seed pass already joined —
// the count falls a little and never rises (the engine before the watermark
// needed 2 477 and 291), the EGD included.
func watermarkRecursive(t *testing.T) {
	graph := datalog.NewDatabase()
	rng := rand.New(rand.NewSource(3))
	for e := 0; e < 60; e++ {
		graph.Add("edge", datalog.Num(float64(rng.Intn(40))), datalog.Num(float64(rng.Intn(40))))
	}
	cat := datalog.NewDatabase()
	programs.CategorizationEDB(cat, "I&G",
		[]string{"Id", "Area", "Sector", "Employees", "Weight", "FluxCapacitance"},
		[]categorize.Entry{
			{Attr: "id", Category: mdb.Identifier},
			{Attr: "geographic area", Category: mdb.QuasiIdentifier},
			{Attr: "product sector", Category: mdb.QuasiIdentifier},
			{Attr: "employees", Category: mdb.QuasiIdentifier},
			{Attr: "sampling weight", Category: mdb.Weight},
		},
		[]categorize.Similarity{categorize.Exact{}, categorize.Normalized{}, categorize.TokenOverlap{Min: 0.5}})
	cases := []struct {
		name string
		prog *datalog.Program
		edb  *datalog.Database
		want int64
	}{
		{"transitive-closure", datalog.MustParse(`
			path(X,Y) :- edge(X,Y).
			path(X,Z) :- path(X,Y), edge(Y,Z).`), graph, 2335},
		{"categorization", programs.Categorization(), cat, 286},
	}
	for _, tc := range cases {
		if got := matchAttempts(t, tc.name, tc.prog, tc.edb); got != tc.want {
			t.Errorf("%s: %d match attempts, want %d", tc.name, got, tc.want)
		}
		datalog.EquivCheck(t, tc.name, tc.prog, tc.edb, nil)
		datalog.InsertionOrderCheck(t, tc.name, tc.prog, tc.edb, nil)
	}
}
