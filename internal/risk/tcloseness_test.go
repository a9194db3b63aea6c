package risk

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"vadasa/internal/mdb"
)

// skewedGroups builds a dataset where one group's sensitive distribution is
// far from the global one and another matches it.
func skewedGroups() *mdb.Dataset {
	d := mdb.NewDataset("skew", []mdb.Attribute{
		{Name: "Area", Category: mdb.QuasiIdentifier},
		{Name: "Default", Category: mdb.NonIdentifying},
	})
	rows := [][2]string{
		// North: 4/4 defaulted — far from the global 5/12.
		{"North", "yes"}, {"North", "yes"}, {"North", "yes"}, {"North", "yes"},
		// South: 1/8 defaulted — close to global.
		{"South", "yes"}, {"South", "no"}, {"South", "no"}, {"South", "no"},
		{"South", "no"}, {"South", "no"}, {"South", "no"}, {"South", "no"},
	}
	for _, r := range rows {
		d.Append(&mdb.Row{Values: []mdb.Value{mdb.Const(r[0]), mdb.Const(r[1])}, Weight: 1})
	}
	return d
}

func TestTClosenessFlagsSkewedGroup(t *testing.T) {
	d := skewedGroups()
	// Global: yes 5/12 ≈ 0.417. North: yes 1.0 (TV ≈ 0.583).
	// South: yes 1/8 = 0.125 (TV ≈ 0.292).
	rs, err := TCloseness{T: 0.4, Sensitive: "Default"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	for i := 0; i < 4; i++ {
		if rs[i] != 1 {
			t.Errorf("North row %d risk = %g, want 1", i+1, rs[i])
		}
	}
	for i := 4; i < 12; i++ {
		if rs[i] != 0 {
			t.Errorf("South row %d risk = %g, want 0", i+1, rs[i])
		}
	}
	// A looser bound accepts both groups.
	rs, err = TCloseness{T: 0.9, Sensitive: "Default"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r != 0 {
			t.Errorf("row %d risk = %g with loose T", i+1, r)
		}
	}
}

func TestTClosenessValidation(t *testing.T) {
	d := skewedGroups()
	if _, err := (TCloseness{T: 0, Sensitive: "Default"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := (TCloseness{T: 1, Sensitive: "Default"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("T=1 accepted")
	}
	if _, err := (TCloseness{T: math.NaN(), Sensitive: "Default"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("T=NaN accepted: no distance exceeds it, every tuple would score 0")
	}
	if _, err := (TCloseness{T: 0.3, Sensitive: "Nope"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("unknown sensitive attribute accepted")
	}
	if _, err := (TCloseness{T: 0.3, Sensitive: "Area", Attrs: []string{"Area"}}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("sensitive attribute in explicit grouping accepted")
	}
}

// Suppression widens groups toward the global distribution: fully merging
// North into everyone brings its distribution to the global one.
func TestTClosenessSuppressionConverges(t *testing.T) {
	d := skewedGroups()
	for i := 0; i < 4; i++ {
		d.Rows[i].Values[0] = d.Nulls.Fresh()
	}
	rs, err := TCloseness{T: 0.4, Sensitive: "Default"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if rs[i] != 0 {
			t.Errorf("suppressed row %d risk = %g, want 0", i+1, rs[i])
		}
	}
}

// An all-null sensitive column is rejected rather than silently safe.
func TestTClosenessNoSensitiveValues(t *testing.T) {
	d := skewedGroups()
	for _, r := range d.Rows {
		r.Values[1] = d.Nulls.Fresh()
	}
	if _, err := (TCloseness{T: 0.4, Sensitive: "Default"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("all-null sensitive column accepted")
	}
}

// t-closeness is a function of its input: a group sitting exactly at its
// bound scores the same on every call and under any row order. Q=x holds the
// sensitive counts [2 3 1 0 3 1] over a…f and Q=y [2 0 1 2 3 1]; x's distance
// from the global distribution is 27/190, which is T to the last bit, so a
// float sum walked in map order lands on either side of it from run to run.
func TestTClosenessIsDeterministicAtItsBound(t *testing.T) {
	build := func(order []int) (*mdb.Dataset, []int) {
		var cells [][2]string
		for q, counts := range map[string][]int{"x": {2, 3, 1, 0, 3, 1}, "y": {2, 0, 1, 2, 3, 1}} {
			for k, c := range counts {
				for ; c > 0; c-- {
					cells = append(cells, [2]string{q, string(rune('a' + k))})
				}
			}
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i][0]+cells[i][1] < cells[j][0]+cells[j][1] })
		d := mdb.NewDataset("bound", []mdb.Attribute{
			{Name: "Q", Category: mdb.QuasiIdentifier},
			{Name: "S", Category: mdb.NonIdentifying},
		})
		if order == nil {
			for i := range cells {
				order = append(order, i)
			}
		}
		for _, i := range order {
			d.Append(&mdb.Row{Values: []mdb.Value{mdb.Const(cells[i][0]), mdb.Const(cells[i][1])}, Weight: 1})
		}
		return d, order
	}
	a := TCloseness{T: 0.14210526315789468, Sensitive: "S"}
	d, order := build(nil)
	if len(d.Rows) != 19 {
		t.Fatalf("fixture has %d rows, want 19", len(d.Rows))
	}
	first, err := a.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 200; run++ {
		rs, err := a.Assess(d, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, first) {
			t.Fatalf("call %d scored %v, the first call %v", run, rs, first)
		}
	}
	// Reversed and interleaved: every row keeps its score.
	for _, perm := range [][]int{reversed(order), interleaved(order)} {
		p, _ := build(perm)
		rs, err := a.Assess(p, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range perm {
			if rs[i] != first[src] {
				t.Fatalf("row %d scores %g in the original order and %g permuted", src, first[src], rs[i])
			}
		}
	}
}

func reversed(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

func interleaved(xs []int) []int {
	var out []int
	for i := 0; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	for i := 1; i < len(xs); i += 2 {
		out = append(out, xs[i])
	}
	return out
}
