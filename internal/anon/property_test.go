package anon

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// randomConfig builds a cycle configuration sweeping the heuristic space.
func randomConfig(rng *rand.Rand, k int) Config {
	choices := []AttrChoice{AttrMostSelective, AttrLeastSelective, AttrSchemaOrder, AttrMaxGain}
	orders := []TupleOrder{OrderLessSignificantFirst, OrderByRiskDesc, OrderByID}
	fracs := []float64{0, 0.1, 0.5, 1}
	var method Anonymizer = LocalSuppression{Choice: choices[rng.Intn(len(choices))]}
	if rng.Intn(3) == 0 {
		method = Composite{
			GlobalRecoding{KB: hierarchy.ItalianGeography(), Choice: choices[rng.Intn(len(choices))]},
			method,
		}
	}
	return Config{
		Assessor:      risk.KAnonymity{K: k},
		Threshold:     0.5,
		Anonymizer:    method,
		Semantics:     mdb.MaybeMatch,
		Order:         orders[rng.Intn(len(orders))],
		BatchFraction: fracs[rng.Intn(len(fracs))],
	}
}

// Post-condition: whatever heuristics are chosen, a converged k-anonymity
// cycle leaves every tuple with maybe-match frequency >= k, or reports it as
// residual. Suppression-only runs must also match NullsInjected against the
// decision log.
func TestCyclePostConditionAcrossHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		k := 2 + rng.Intn(3)
		d := synth.Generate(synth.Config{
			Tuples: 400 + rng.Intn(400), QIs: 3 + rng.Intn(2),
			Dist: synth.Dist(rng.Intn(3)), Seed: int64(trial),
		})
		cfg := randomConfig(rng, k)
		res, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		residual := make(map[int]bool, len(res.Residual))
		for _, id := range res.Residual {
			residual[id] = true
		}
		freqs := mdb.Frequencies(res.Dataset, res.Dataset.QuasiIdentifiers(), mdb.MaybeMatch)
		for i, f := range freqs {
			if f < k && !residual[res.Dataset.Rows[i].ID] {
				t.Fatalf("trial %d: row %d freq %d < %d and not residual (order %v, method %s)",
					trial, i, f, k, cfg.Order, cfg.Anonymizer.Name())
			}
		}
		// Suppression decisions must account for every injected null.
		suppressions := 0
		for _, dec := range res.Decisions {
			if dec.Method == "local-suppression" {
				suppressions++
			}
		}
		if suppressions != res.NullsInjected {
			t.Fatalf("trial %d: %d suppression decisions, %d nulls injected",
				trial, suppressions, res.NullsInjected)
		}
		// The input dataset is never touched.
		if d.NullCount() != 0 {
			t.Fatalf("trial %d: input dataset mutated", trial)
		}
	}
}

// Risk scores never leave [0,1] for any shipped measure on random datasets,
// with and without nulls.
func TestRiskRangeAcrossMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		d := synth.Generate(synth.Config{
			Tuples: 300, QIs: 4, Dist: synth.Dist(rng.Intn(3)), Seed: int64(100 + trial),
		})
		// Inject some nulls.
		qi := d.QuasiIdentifiers()
		for i := 0; i < trial*3; i++ {
			d.Rows[rng.Intn(len(d.Rows))].Values[qi[rng.Intn(len(qi))]] = d.Nulls.Fresh()
		}
		measures := []risk.Assessor{
			risk.ReIdentification{},
			risk.KAnonymity{K: 3},
			risk.IndividualRisk{Estimator: risk.Ratio},
			risk.IndividualRisk{Estimator: risk.PosteriorSeries},
			risk.IndividualRisk{Estimator: risk.MonteCarlo, Samples: 20, Seed: 1},
			risk.SUDA{Threshold: 3},
		}
		for _, m := range measures {
			for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
				rs, err := m.Assess(d, sem)
				if err != nil {
					t.Fatalf("trial %d %s/%v: %v", trial, m.Name(), sem, err)
				}
				for i, r := range rs {
					if r < 0 || r > 1 {
						t.Fatalf("trial %d %s/%v row %d: risk %g outside [0,1]",
							trial, m.Name(), sem, i, r)
					}
				}
			}
		}
	}
}

// Suppressing a value never increases any tuple's re-identification risk
// (the monotonicity the cycle depends on).
func TestSuppressionNeverRaisesReIdentRisk(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		d := synth.Generate(synth.Config{
			Tuples: 200, QIs: 4, Dist: synth.DistV, Seed: int64(trial),
		})
		before, err := risk.ReIdentification{}.Assess(d, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		qi := d.QuasiIdentifiers()
		row := rng.Intn(len(d.Rows))
		d.Rows[row].Values[qi[rng.Intn(len(qi))]] = d.Nulls.Fresh()
		after, err := risk.ReIdentification{}.Assess(d, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range before {
			if after[i] > before[i]+1e-12 {
				t.Fatalf("trial %d: row %d risk rose %g -> %g", trial, i, before[i], after[i])
			}
		}
	}
}

// recounting hides the carried code table from the wrapped anonymizer:
// every iteration (a new *Context from next) steps on a fresh context, which
// codes the dataset at its first read and is fed the cells the loop applies,
// as the loop feeds its own — the behaviour the carried table must reproduce.
type recounting struct {
	Anonymizer
	seen, fresh *Context
}

func (r *recounting) Step(ctx *Context, row int) ([]Decision, bool) {
	if ctx != r.seen {
		r.seen, r.fresh = ctx, NewContext(ctx.Dataset, ctx.QI)
	}
	decisions, ok := r.Anonymizer.Step(r.fresh, row)
	r.fresh.applied(appendCells(nil, ctx.Dataset, row, decisions))
	return decisions, ok
}

// The selectivity index carried across iterations must give every step the
// counts a per-iteration recount would: identical decision logs and
// datasets, across heuristics, with recoding steps (which drop the index)
// mixed in, and on inputs where rows down to their last constant are
// suppressed before the iteration's first selectivity read.
func TestCarriedSelectivityMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	sameLog := func(label string, d *mdb.Dataset, cfg Config) {
		t.Helper()
		got, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg.Anonymizer = &recounting{Anonymizer: cfg.Anonymizer}
		want, err := Run(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(got.Decisions) != len(want.Decisions) {
			t.Fatalf("%s: %d decisions, recount makes %d", label, len(got.Decisions), len(want.Decisions))
		}
		for i := range want.Decisions {
			if got.Decisions[i] != want.Decisions[i] {
				t.Fatalf("%s: decision %d is %+v, recount makes %+v", label, i, got.Decisions[i], want.Decisions[i])
			}
		}
	}
	for trial := 0; trial < 12; trial++ {
		d := synth.Generate(synth.Config{
			Tuples: 300 + rng.Intn(300), QIs: 3 + rng.Intn(2),
			Dist: synth.Dist(rng.Intn(3)), Seed: int64(100 + trial),
		})
		sameLog(fmt.Sprint("synth trial ", trial), d, randomConfig(rng, 2+rng.Intn(4)))
	}
	// Tiny value universes under an unreachable k: every row stays risky
	// until it is all nulls, selectivity ties are everywhere, and rows down
	// to one constant are stepped ahead of rows that still have a choice —
	// a count off by one anywhere changes the log.
	for trial := 0; trial < 40; trial++ {
		qis := 3 + rng.Intn(2)
		attrs := make([]mdb.Attribute, qis)
		for i := range attrs {
			attrs[i] = mdb.Attribute{Name: string(rune('A' + i)), Category: mdb.QuasiIdentifier}
		}
		d := mdb.NewDataset("tiny", attrs)
		for r := 0; r < 20+rng.Intn(40); r++ {
			vals := make([]mdb.Value, qis)
			for i := range vals {
				vals[i] = mdb.Const(string(rune('a' + rng.Intn(3))))
				if rng.Intn(4) == 0 {
					vals[i] = d.Nulls.Fresh()
				}
			}
			d.Append(&mdb.Row{Values: vals, Weight: 1})
		}
		sameLog(fmt.Sprint("tiny trial ", trial), d, Config{
			Assessor:      risk.KAnonymity{K: 1000},
			Threshold:     0.5,
			Anonymizer:    LocalSuppression{Choice: []AttrChoice{AttrMostSelective, AttrLeastSelective}[trial%2]},
			Order:         []TupleOrder{OrderLessSignificantFirst, OrderByID}[trial/2%2],
			BatchFraction: 1,
		})
	}
}

// The selectivity snapshot outlives the table it was counted from: read
// Marginal, apply a recoding cell (which drops the table), let FreqWithout
// code the recoded dataset afresh — with codes the old dictionary no longer
// names — and every Marginal of the iteration must still count the dataset
// as it stood at the first read. The next iteration counts it as it stands.
func TestSelectivitySnapshotOutlivesTheTable(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 300, QIs: 4, Dist: synth.DistV, Seed: 7})
	qi := d.QuasiIdentifiers()
	ctx := NewContext(d, qi)
	suppress := func(pos, attr int) {
		old := d.Rows[pos].Values[attr]
		d.Rows[pos].Values[attr] = d.Nulls.Fresh()
		ctx.applied([]cell{{pos: pos, attr: attr, old: old}})
	}
	marginals := func(label string, at *mdb.Dataset) {
		t.Helper()
		for _, a := range qi {
			for _, v := range append(at.DistinctValues(a), "absent") {
				want := 0
				for _, r := range at.Rows {
					if c := r.Values[a]; c.IsNull() || c.Constant() == v {
						want++
					}
				}
				if got := ctx.Marginal(a, mdb.Const(v)); got != want {
					t.Fatalf("%s: Marginal(%d, %s) = %d, the count is %d", label, a, mdb.RedactString(v), got, want)
				}
			}
		}
	}

	without := func(a int) []int {
		return mdb.Frequencies(d, slices.DeleteFunc(slices.Clone(qi), func(b int) bool { return b == a }), mdb.MaybeMatch)
	}
	suppress(0, qi[0]) // before the table exists: the first read codes it
	early := without(qi[2])
	ctx.FreqWithout(qi[2])
	suppress(1, qi[1]) // re-coded in the table, counted by the first read
	ctx.Marginal(qi[0], d.Rows[2].Values[qi[0]])
	first := d.Clone()
	suppress(3, qi[2]) // after the first read
	// A global recoding merges the first row's values into the last row's,
	// so a code of the old dictionary names another value in the new table.
	last := d.Rows[len(d.Rows)-1]
	for _, a := range qi {
		from, to := d.Rows[2].Values[a], last.Values[a]
		for _, r := range d.Rows {
			if r.Values[a] == from {
				r.Values[a] = to
			}
		}
	}
	ctx.applied([]cell{{pos: 2, attr: -1}})
	suppress(4, qi[3])
	for _, a := range qi {
		want := without(a)
		if a == qi[2] {
			want = early // the iteration's first call for the attribute
		}
		if !slices.Equal(ctx.FreqWithout(a), want) {
			t.Fatalf("FreqWithout(%d) does not group the dataset as it stood at its first call", a)
		}
	}
	marginals("after the table was rebuilt", first)
	ctx = ctx.next()
	marginals("next iteration", d)
}
