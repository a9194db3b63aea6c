package risk

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"vadasa/internal/mdb"
)

// incrDataset builds a random weighted dataset with fractional weights, so a
// float summation-order mistake anywhere in the incremental path surfaces as
// a bitwise mismatch instead of hiding behind integer sums.
func incrDataset(rng *rand.Rand, rows, qis, domain int) *mdb.Dataset {
	attrs := make([]mdb.Attribute, qis+1)
	for i := 0; i < qis; i++ {
		attrs[i] = mdb.Attribute{Name: string(rune('A' + i)), Category: mdb.QuasiIdentifier}
	}
	attrs[qis] = mdb.Attribute{Name: "W", Category: mdb.Weight}
	d := mdb.NewDataset("rand", attrs)
	for r := 0; r < rows; r++ {
		vals := make([]mdb.Value, qis+1)
		for i := 0; i < qis; i++ {
			vals[i] = mdb.Const(string(rune('a' + rng.Intn(domain))))
		}
		vals[qis] = mdb.Const("w")
		d.Append(&mdb.Row{ID: r + 1, Values: vals, Weight: 1 + rng.Float64()*4})
	}
	return d
}

func incrementalAssessors() []IncrementalAssessor {
	return []IncrementalAssessor{
		KAnonymity{K: 2},
		KAnonymity{K: 4},
		ReIdentification{},
		IndividualRisk{Estimator: Ratio},
		IndividualRisk{Estimator: PosteriorSeries},
		IndividualRisk{Estimator: MonteCarlo, Samples: 40, Seed: 7},
	}
}

// Property: for every incremental assessor, both semantics, random datasets
// and random suppression batches, Rescore over the maintained index equals a
// fresh full AssessContext bitwise — first with prev == nil (full rescore
// off the index), then with prev + exact dirty set (the cycle's fast path).
func TestRescoreMatchesAssessBitwise(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		sem := mdb.Semantics(trial % 2)
		d := incrDataset(rng, 60+rng.Intn(200), 3, 2+rng.Intn(4))
		for _, a := range incrementalAssessors() {
			by, err := a.Grouping(d)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := mdb.BuildIndex(ctx, d, by, sem)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := a.Rescore(ctx, idx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameScores(t, a.Name()+"/build", prev, mustAssess(t, ctx, a, d, sem))

			qi := d.QuasiIdentifiers()
			for batch := 0; batch < 4; batch++ {
				for i := 0; i < 1+rng.Intn(6); i++ {
					pos := rng.Intn(len(d.Rows))
					attr := qi[rng.Intn(len(qi))]
					if d.Rows[pos].Values[attr].IsNull() {
						continue
					}
					d.Rows[pos].Values[attr] = d.Nulls.Fresh()
					if err := idx.SuppressCell(pos, attr); err != nil {
						t.Fatal(err)
					}
				}
				dirty, err := idx.Commit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.Rescore(ctx, idx, dirty, prev)
				if err != nil {
					t.Fatal(err)
				}
				assertSameScores(t, a.Name()+"/incremental", got, mustAssess(t, ctx, a, d, sem))
				prev = got
			}
			// Undo nothing — each assessor starts from a fresh dataset copy.
			d = incrDataset(rng, 60+rng.Intn(200), 3, 2+rng.Intn(4))
		}
	}
}

func mustAssess(t *testing.T, ctx context.Context, a ContextAssessor, d *mdb.Dataset, sem mdb.Semantics) []float64 {
	t.Helper()
	want, err := a.AssessContext(ctx, d, sem)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func assertSameScores(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got %v, want %v (bitwise mismatch)", label, i, got[i], want[i])
		}
	}
}

// Rescore must not mutate the previous vector: the cycle keeps score history
// for the journal, and an aliasing bug would corrupt it retroactively.
func TestRescorePreservesPrev(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(113))
	d := incrDataset(rng, 120, 3, 3)
	qi := d.QuasiIdentifiers()
	a := ReIdentification{}
	idx, err := mdb.BuildGroupIndex(ctx, d, qi, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := a.Rescore(ctx, idx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), prev...)
	d.Rows[3].Values[qi[0]] = d.Nulls.Fresh()
	if err := idx.SuppressCell(3, qi[0]); err != nil {
		t.Fatal(err)
	}
	dirty, err := idx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) == 0 {
		t.Fatal("suppression produced no dirty rows")
	}
	if _, err := a.Rescore(ctx, idx, dirty, prev); err != nil {
		t.Fatal(err)
	}
	assertSameScores(t, "prev", prev, snapshot)
}

// The non-positive-weight error must carry the same identity (message and
// offending row) whether raised by the full path or the incremental one.
func TestRescoreErrorMatchesAssess(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(131))
	d := incrDataset(rng, 40, 2, 2)
	qi := d.QuasiIdentifiers()
	// A singleton group with zero weight: no sibling can rescue its sum.
	for _, attr := range qi {
		d.Rows[17].Values[attr] = mdb.Const("zz")
	}
	d.Rows[17].Weight = 0
	for _, a := range []IncrementalAssessor{ReIdentification{}, IndividualRisk{Estimator: Ratio}} {
		_, wantErr := a.AssessContext(ctx, d, mdb.MaybeMatch)
		if wantErr == nil {
			t.Fatalf("%s: full assess accepted zero weight", a.Name())
		}
		idx, err := mdb.BuildGroupIndex(ctx, d, qi, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		_, gotErr := a.Rescore(ctx, idx, nil, nil)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: rescore err %v, want %v", a.Name(), gotErr, wantErr)
		}
	}
}

// A prev vector of the wrong length is a caller bug the rescore path must
// reject rather than index out of range on.
func TestRescoreRejectsMismatchedPrev(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(137))
	d := incrDataset(rng, 30, 2, 3)
	qi := d.QuasiIdentifiers()
	idx, err := mdb.BuildGroupIndex(ctx, d, qi, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (KAnonymity{K: 2}).Rescore(ctx, idx, []int{0}, make([]float64, 7)); err == nil {
		t.Fatal("mismatched prev accepted")
	}
}

// SUDA and the cluster assessor intentionally do not implement the
// incremental interface; the cycle's fallback depends on that staying true.
func TestSUDAIsNotIncremental(t *testing.T) {
	var a ContextAssessor = SUDA{Threshold: 3}
	if _, ok := a.(IncrementalAssessor); ok {
		t.Fatal("SUDA claims to be incremental; its risk is not a pure function of one grouping")
	}
}
