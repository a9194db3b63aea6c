package utility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vadasa/internal/anon"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

func TestCompareIdentical(t *testing.T) {
	d := synth.Figure5()
	rep, err := Compare(d, d.Clone())
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if rep.SuppressionRate != 0 {
		t.Errorf("suppression rate = %g, want 0", rep.SuppressionRate)
	}
	for _, a := range rep.Attributes {
		if a.Suppressed != 0 || a.Recoded != 0 || a.TotalVariation != 0 {
			t.Errorf("attribute %s not pristine: %+v", a.Name, a)
		}
	}
	if rep.MeanGroupSizeBefore != rep.MeanGroupSizeAfter {
		t.Errorf("group sizes differ on identical data")
	}
}

func TestCompareCountsSuppressionsAndRecodes(t *testing.T) {
	before := synth.Figure5()
	after := before.Clone()
	sector := after.AttrIndex("Sector")
	area := after.AttrIndex("Area")
	after.Rows[0].Values[sector] = after.Nulls.Fresh() // suppression
	after.Rows[5].Values[area] = mdb.Const("North")    // recode Milano
	after.Rows[6].Values[area] = mdb.Const("North")    // recode Torino

	rep, err := Compare(before, after)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AttributeReport{}
	for _, a := range rep.Attributes {
		byName[a.Name] = a
	}
	if byName["Sector"].Suppressed != 1 || byName["Sector"].Recoded != 0 {
		t.Errorf("Sector report = %+v", byName["Sector"])
	}
	if byName["Area"].Recoded != 2 || byName["Area"].Suppressed != 0 {
		t.Errorf("Area report = %+v", byName["Area"])
	}
	// 1 suppressed cell of 7 rows x 4 QIs.
	if want := 1.0 / 28; math.Abs(rep.SuppressionRate-want) > 1e-12 {
		t.Errorf("suppression rate = %g, want %g", rep.SuppressionRate, want)
	}
	// Area TV distance: before {Roma:5, Milano:1, Torino:1}/7, after
	// {Roma:5, North:2}/7 -> TV = (|5-5| + 1 + 1 + 2)/2/7 = 2/7.
	if want := 2.0 / 7; math.Abs(byName["Area"].TotalVariation-want) > 1e-12 {
		t.Errorf("Area TV = %g, want %g", byName["Area"].TotalVariation, want)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	a := synth.Figure5()
	b := synth.InflationGrowth()
	if _, err := Compare(a, b); err == nil {
		t.Error("different schemas accepted")
	}
	c := a.Clone()
	c.Rows = c.Rows[:3]
	if _, err := Compare(a, c); err == nil {
		t.Error("different row counts accepted")
	}
	renamed := a.Clone()
	renamed.Attrs[1].Name = "Zone"
	if _, err := Compare(a, renamed); err == nil {
		t.Error("renamed attribute accepted")
	}
	noQI := mdb.NewDataset("x", []mdb.Attribute{{Name: "A"}})
	if _, err := Compare(noQI, noQI.Clone()); err == nil {
		t.Error("dataset without quasi-identifiers accepted")
	}
}

// After a k-anonymity cycle, the achieved min group size must be >= k and
// mean group size must not shrink.
func TestCompareAfterCycle(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 2000, QIs: 4, Dist: synth.DistU, Seed: 8})
	res, err := anon.Run(d, anon.Config{
		Assessor:   risk.KAnonymity{K: 3},
		Threshold:  0.5,
		Anonymizer: anon.LocalSuppression{Choice: anon.AttrMaxGain},
		Semantics:  mdb.MaybeMatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compare(d, res.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinGroupSizeAfter < 3 {
		t.Errorf("min group size after = %d, want >= 3", rep.MinGroupSizeAfter)
	}
	if rep.MeanGroupSizeAfter < rep.MeanGroupSizeBefore {
		t.Errorf("mean group size shrank: %g -> %g",
			rep.MeanGroupSizeBefore, rep.MeanGroupSizeAfter)
	}
	if rep.SuppressionRate <= 0 || rep.SuppressionRate > 0.2 {
		t.Errorf("suppression rate = %g, want small but positive", rep.SuppressionRate)
	}
	// Total suppressed across attributes must equal the cycle's null count.
	total := 0
	for _, a := range rep.Attributes {
		total += a.Suppressed
	}
	if total != res.NullsInjected {
		t.Errorf("suppressed cells %d != nulls injected %d", total, res.NullsInjected)
	}
}

func TestRender(t *testing.T) {
	d := synth.Figure5()
	after := d.Clone()
	after.Rows[0].Values[1] = after.Nulls.Fresh()
	rep, err := Compare(d, after)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	for _, want := range []string{"utility report", "Sector", "suppression rate", "min group size"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TotalVariation is the same bits on every call: the |p−q| terms are summed
// in sorted-key order. Summed in map order, 50 calls on this column gave 11
// different results.
func TestTotalVariationIsReproducible(t *testing.T) {
	attrs := []mdb.Attribute{{Name: "Id", Category: mdb.Identifier}, {Name: "A", Category: mdb.QuasiIdentifier}}
	before := mdb.NewDataset("tv", attrs)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 5000; i++ {
		v := fmt.Sprintf("v%03d", int(300*rng.Float64()*rng.Float64()))
		before.Append(&mdb.Row{Values: []mdb.Value{mdb.Const(fmt.Sprint(i)), mdb.Const(v)}})
	}
	after := before.Clone()
	for _, i := range rng.Perm(5000)[:700] {
		after.Rows[i].Values[1] = after.Nulls.Fresh()
	}

	p, q := map[string]float64{}, map[string]float64{}
	for i := range before.Rows {
		p[before.Rows[i].Values[1].Constant()]++
		if v := after.Rows[i].Values[1]; !v.IsNull() {
			q[v.Constant()]++
		}
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := 0.0
	for _, k := range keys {
		want += math.Abs(p[k]/5000 - q[k]/4300)
	}
	want /= 2

	for call := 0; call < 50; call++ {
		rep, err := Compare(before, after)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Attributes[0].TotalVariation; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: TotalVariation %v, the sorted-order sum %v", call, got, want)
		}
	}
}

func TestTotalVariationEdgeCases(t *testing.T) {
	if tv := totalVariation(nil, 0, nil, 0); tv != 0 {
		t.Errorf("empty vs empty = %g", tv)
	}
	if tv := totalVariation(map[string]float64{"a": 1}, 1, nil, 0); tv != 1 {
		t.Errorf("something vs nothing = %g", tv)
	}
	same := map[string]float64{"a": 2, "b": 2}
	if tv := totalVariation(same, 4, same, 4); tv != 0 {
		t.Errorf("identical = %g", tv)
	}
	p := map[string]float64{"a": 1}
	q := map[string]float64{"b": 1}
	if tv := totalVariation(p, 1, q, 1); tv != 1 {
		t.Errorf("disjoint = %g", tv)
	}
}
