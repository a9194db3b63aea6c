package anon

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"vadasa/internal/mdb"
)

func weightColumnDataset(values []float64) *mdb.Dataset {
	d := mdb.NewDataset("m", []mdb.Attribute{
		{Name: "Area", Category: mdb.QuasiIdentifier},
		{Name: "Income", Category: mdb.NonIdentifying},
	})
	for _, v := range values {
		d.Append(&mdb.Row{
			Values: []mdb.Value{mdb.Const("x"), mdb.Const(strconv.FormatFloat(v, 'g', -1, 64))},
			Weight: 1,
		})
	}
	return d
}

func TestMicroaggregate(t *testing.T) {
	d := weightColumnDataset([]float64{10, 20, 30, 100, 110, 120})
	if err := Microaggregate(d, "Income", 3); err != nil {
		t.Fatalf("Microaggregate: %v", err)
	}
	idx := d.AttrIndex("Income")
	want := []string{"20", "20", "20", "110", "110", "110"}
	for i, w := range want {
		if got := d.Rows[i].Values[idx].Constant(); got != w {
			t.Errorf("row %d: %q, want %q", i+1, got, w)
		}
	}
}

func TestMicroaggregateRemainderAbsorbed(t *testing.T) {
	// 7 values with k=3: groups of 3 and 4.
	d := weightColumnDataset([]float64{1, 2, 3, 4, 5, 6, 7})
	if err := Microaggregate(d, "Income", 3); err != nil {
		t.Fatal(err)
	}
	idx := d.AttrIndex("Income")
	counts := map[string]int{}
	for _, r := range d.Rows {
		counts[r.Values[idx].Constant()]++
	}
	for v, c := range counts {
		if c < 3 {
			t.Errorf("group mean %q appears %d times, want >= 3", v, c)
		}
	}
}

func TestMicroaggregatePreservesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := make([]float64, 50)
	total := 0.0
	for i := range values {
		values[i] = float64(rng.Intn(1000))
		total += values[i]
	}
	d := weightColumnDataset(values)
	if err := Microaggregate(d, "Income", 4); err != nil {
		t.Fatal(err)
	}
	idx := d.AttrIndex("Income")
	after := 0.0
	for _, r := range d.Rows {
		v, err := strconv.ParseFloat(r.Values[idx].Constant(), 64)
		if err != nil {
			t.Fatal(err)
		}
		after += v
	}
	if math.Abs(after-total) > 1e-6*total {
		t.Fatalf("sum changed: %g -> %g", total, after)
	}
}

func TestMicroaggregateErrors(t *testing.T) {
	d := weightColumnDataset([]float64{1, 2, 3})
	if err := Microaggregate(d, "Income", 1); err == nil {
		t.Error("k=1 accepted")
	}
	if err := Microaggregate(d, "Nope", 2); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := Microaggregate(d, "Area", 2); err == nil {
		t.Error("non-numeric attribute accepted")
	}
	tiny := weightColumnDataset([]float64{1})
	if err := Microaggregate(tiny, "Income", 2); err == nil {
		t.Error("fewer values than k accepted")
	}
	// "NaN" and "Inf" parse as floats; they are refused like any other
	// non-number, before a cell of the column is written.
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
		d := weightColumnDataset([]float64{1, 2, 0, 4, 5, 6})
		idx := d.AttrIndex("Income")
		d.Rows[2].Values[idx] = mdb.Const(bad)
		want := d.Clone()
		if err := Microaggregate(d, "Income", 2); err == nil || !strings.Contains(err.Error(), "is not numeric") {
			t.Errorf("%s: err = %v, want the non-numeric refusal", bad, err)
		}
		for i, r := range d.Rows {
			if r.Values[idx] != want.Rows[i].Values[idx] {
				t.Fatalf("%s: row %d rewritten to %s", bad, i, r.Values[idx].Redacted())
			}
		}
	}
}

func TestMicroaggregateSkipsNulls(t *testing.T) {
	d := weightColumnDataset([]float64{1, 2, 3, 4})
	idx := d.AttrIndex("Income")
	d.Rows[0].Values[idx] = d.Nulls.Fresh()
	if err := Microaggregate(d, "Income", 3); err != nil {
		t.Fatal(err)
	}
	if !d.Rows[0].Values[idx].IsNull() {
		t.Error("null disturbed")
	}
	// The remaining three values form one group with mean 3.
	if got := d.Rows[1].Values[idx].Constant(); got != "3" {
		t.Errorf("mean = %q, want 3", got)
	}
}

func TestMicroaggregateEmptyColumn(t *testing.T) {
	d := weightColumnDataset([]float64{1, 2})
	idx := d.AttrIndex("Income")
	d.Rows[0].Values[idx] = d.Nulls.Fresh()
	d.Rows[1].Values[idx] = d.Nulls.Fresh()
	if err := Microaggregate(d, "Income", 2); err != nil {
		t.Fatalf("all-null column: %v", err)
	}
}
