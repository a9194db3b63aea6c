package risk

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"vadasa/internal/mdb"
)

// Property (the streaming layer's correctness contract): after any
// interleaving of row appends, row deletes and cell suppressions, Rescore
// over the maintained index with the caller-shifted prev vector and the
// exact dirty set equals a fresh full AssessContext over the current row
// set, bitwise, for every incremental assessor under both semantics. The
// caller-side shift mirrors internal/stream: a delete cuts the slot from
// prev, an append extends prev with a zero placeholder (the appended row is
// always dirty, so the placeholder is never read as a committed score).
func TestRescoreAfterRowOpsMatchesAssessBitwise(t *testing.T) {
	prevProcs := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prevProcs)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 6; trial++ {
		sem := mdb.Semantics(trial % 2)
		for _, a := range incrementalAssessors() {
			qis := 3
			domain := 2 + rng.Intn(4)
			d := incrDataset(rng, 50+rng.Intn(150), qis, domain)
			qi := d.QuasiIdentifiers()
			nextID := len(d.Rows)
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
			for batch := 0; batch < 5; batch++ {
				for i := 0; i < 1+rng.Intn(8); i++ {
					switch op := rng.Intn(4); {
					case op == 0 && len(d.Rows) > 10: // withdraw a row
						pos := rng.Intn(len(d.Rows))
						d.Rows = append(d.Rows[:pos], d.Rows[pos+1:]...)
						if err := idx.DeleteRow(pos); err != nil {
							t.Fatal(err)
						}
						prev = append(prev[:pos], prev[pos+1:]...)
					case op == 1: // append a row
						vals := make([]mdb.Value, qis+1)
						for j := 0; j < qis; j++ {
							vals[j] = mdb.Const(string(rune('a' + rng.Intn(domain))))
						}
						vals[qis] = mdb.Const("w")
						nextID++
						d.Append(&mdb.Row{ID: nextID, Values: vals, Weight: 1 + rng.Float64()*4})
						if err := idx.AppendRow(len(d.Rows) - 1); err != nil {
							t.Fatal(err)
						}
						prev = append(prev, 0)
					default: // suppress a cell
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
				}
				dirty, err := idx.Commit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.Rescore(ctx, idx, dirty, prev)
				if err != nil {
					t.Fatal(err)
				}
				assertSameScores(t, a.Name()+"/rowops", got, mustAssess(t, ctx, a, d, sem))
				prev = got
			}
		}
	}
}
