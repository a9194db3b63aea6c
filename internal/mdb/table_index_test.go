package mdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/synth"
)

// sameTables fails unless got and want, code tables over the same attributes
// of d, group every column selection alike and, under maybe-match, count
// every value of every column alike.
func sameTables(t *testing.T, label string, d *mdb.Dataset, attrs []int, sem mdb.Semantics, got, want *mdb.CodeTable) {
	t.Helper()
	for mask := 1; mask < 1<<len(attrs); mask++ {
		var sel []int
		for j := range attrs {
			if mask&(1<<j) != 0 {
				sel = append(sel, j)
			}
		}
		if g, w := got.Group(sel), want.Group(sel); !slices.Equal(g, w) {
			t.Fatalf("%s: columns %v group differently", label, sel)
		}
	}
	if sem != mdb.MaybeMatch {
		return
	}
	gc, wc := got.Counts(), want.Counts()
	for j, a := range attrs {
		for _, v := range append(d.DistinctValues(a), "absent") {
			gn, gnull := gc.Of(j, mdb.Const(v))
			wn, wnull := wc.Of(j, mdb.Const(v))
			if gn != wn || gnull != wnull {
				t.Fatalf("%s: column %d value %s counts (%d, %d), want (%d, %d)", label, j, mdb.RedactString(v), gn, gnull, wn, wnull)
			}
		}
	}
}

// The copy a group index makes of its coding is the code table NewCodeTable
// builds over the dataset as it stands: on W, U and V tables, after every
// commit of a tape of appends, suppressions and withdrawals that compacts the
// index, over the quasi-identifiers without and with a sensitive column,
// under both semantics. It then follows one more
// suppression as NewCodeTable's table does, and it is nil for other
// attributes or the other semantics.
func TestGroupIndexCodeTableIsNewCodeTable(t *testing.T) {
	ctx := context.Background()
	for _, dist := range []synth.Dist{synth.DistW, synth.DistU, synth.DistV} {
		for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
			other := mdb.StandardNulls
			if sem == other {
				other = mdb.MaybeMatch
			}
			for _, sens := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(dist)*7 + 3))
				d := synth.Generate(synth.Config{Tuples: 800, QIs: 4, Dist: dist, Seed: 41})
				extra := synth.Generate(synth.Config{Tuples: 400, QIs: 4, Dist: dist, Seed: 43})
				qi := d.QuasiIdentifiers()
				by := mdb.Grouping{Attrs: qi, Sensitive: mdb.NoSensitive}
				if sens {
					by.Sensitive = 0 // the identifier: a code per row, which withdrawals kill
				}
				x, err := mdb.BuildIndex(ctx, d, by, sem)
				if err != nil {
					t.Fatal(err)
				}
				if x.CodeTable(by.Attrs, other) != nil || x.CodeTable(qi[1:], sem) != nil {
					t.Fatalf("%s %s: a copy under other semantics or attributes", dist, sem)
				}
				compactions := 0
				for round := 0; round < 8; round++ {
					label := fmt.Sprintf("%s %s sensitive=%v round %d", dist, sem, sens, round)
					for _, r := range extra.Rows[round*40 : round*40+40] {
						d.Append(r)
						if err := x.AppendRow(len(d.Rows) - 1); err != nil {
							t.Fatal(err)
						}
					}
					for i := 0; i < 30; i++ {
						pos, a := rng.Intn(len(d.Rows)), qi[rng.Intn(len(qi))]
						if d.Rows[pos].Values[a].IsNull() {
							continue
						}
						d.Rows[pos].Values[a] = d.Nulls.Fresh()
						if err := x.SuppressCell(pos, a); err != nil {
							t.Fatal(err)
						}
					}
					ps := rng.Perm(len(d.Rows))[:len(d.Rows)/4]
					slices.Sort(ps)
					d.Rows = mdb.RemovePositions(d.Rows, ps)
					if err := x.DeleteRows(ps); err != nil {
						t.Fatal(err)
					}
					before := x.EstimatedBytes()
					if _, err := x.Commit(ctx); err != nil {
						t.Fatal(err)
					}
					if x.EstimatedBytes() < before {
						compactions++
					}

					got, want := x.CodeTable(by.Attrs, sem), mdb.NewCodeTable(d, by.Attrs, sem)
					sameTables(t, label, d, by.Attrs, sem, got, want)
					pos, a := rng.Intn(len(d.Rows)), by.Attrs[rng.Intn(len(by.Attrs))]
					if !d.Rows[pos].Values[a].IsNull() {
						d.Rows[pos].Values[a] = d.Nulls.Fresh()
						for _, err := range []error{got.SuppressCell(pos, a), want.SuppressCell(pos, a), x.SuppressCell(pos, a)} {
							if err != nil {
								t.Fatal(err)
							}
						}
						sameTables(t, label+" then a suppression", d, by.Attrs, sem, got, want)
					}
				}
				if compactions == 0 {
					t.Fatalf("%s %s sensitive=%v: the tape never compacted the index", dist, sem, sens)
				}
			}
		}
	}
}
