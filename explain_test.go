package vadasa

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vadasa/internal/datalog"
	"vadasa/internal/programs"
)

// explainWholeTable is ExplainRiskContext as it was before the chase shrank
// to the tuple's group, kept verbatim as the oracle: every row of the dataset
// is loaded as a tuple fact and the twin program chased over all of them.
func explainWholeTable(f *Framework, d *Dataset, measure RiskMeasure, rowID int) (string, error) {
	ctx := context.Background()
	qi := d.QuasiIdentifiers()
	if len(qi) == 0 {
		return "", fmt.Errorf("vadasa: dataset %q has no quasi-identifiers", d.Name)
	}
	found := false
	for _, r := range d.Rows {
		if r.ID == rowID {
			found = true
			break
		}
	}
	if !found {
		return "", fmt.Errorf("vadasa: dataset %q has no tuple with id %d", d.Name, rowID)
	}

	if m, ok := measure.(SUDA); ok {
		return f.explainSUDA(ctx, d, m, rowID)
	}
	prog, err := programs.TwinOf(measure, d, true)
	switch {
	case errors.Is(err, programs.ErrRestricted):
		return "", fmt.Errorf("vadasa: ExplainRisk does not support attribute-restricted measures")
	case err != nil:
		return "", fmt.Errorf("vadasa: no explanation support for measure %q", measure.Name())
	}

	edb := datalog.NewDatabase()
	programs.TupleFacts(edb, d)
	opt, done := f.reasonerOptions(ctx)
	defer done()
	res, err := datalog.RunContext(ctx, prog, edb, opt)
	if err != nil {
		return "", fmt.Errorf("vadasa: explaining risk: %w", err)
	}
	rows := res.DB().Rows("riskout")
	best := -1
	for i := 0; i < rows.Len(); i++ {
		if f := rows.Row(i); int(f.At(0).NumVal()) == rowID && (best < 0 || f.Compare(rows.Row(best)) < 0) {
			best = i
		}
	}
	if best < 0 {
		return "", fmt.Errorf("vadasa: no risk derived for tuple %d", rowID)
	}
	return res.Explain("riskout", rows.Row(best).Tuple()...)
}

// sameExplanation holds ExplainRisk to the oracle on one tuple: the same
// text, or the same error.
func sameExplanation(t *testing.T, f *Framework, d *Dataset, m RiskMeasure, id int) {
	t.Helper()
	got, gotErr := f.ExplainRisk(d, m, id)
	want, wantErr := explainWholeTable(f, d, m, id)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s on %s, tuple %d:\n got %q, %v\nwant %q, %v", m.Name(), d.Name, id, got, gotErr, want, wantErr)
	}
}

// withNulls is a V table after suppression: fresh nulls (a CSV's `*`) on
// every fifth row, one labelled null shared by a run of rows, QI vectors
// repeated with that null in them, and two rows alike but for their fresh
// nulls.
func withNulls() *Dataset {
	d := Generate(GeneratorConfig{Tuples: 150, QIs: 3, Dist: DistV, Seed: 91})
	qi := d.QuasiIdentifiers()
	shared := d.Nulls.Fresh()
	for i, r := range d.Rows {
		switch {
		case i%5 == 0:
			r.Values[qi[i%len(qi)]] = d.Nulls.Fresh()
		case i%11 == 0:
			r.Values[qi[0]] = shared
		}
	}
	for i := 1; i < 4; i++ {
		copy(d.Rows[i*20].Values, d.Rows[11].Values) // row 11 carries the shared null
	}
	copy(d.Rows[30].Values, d.Rows[25].Values)
	d.Rows[30].Values[qi[1]] = d.Nulls.Fresh() // where row 25 has its own
	d.Name = "V150+nulls"
	return d
}

// ExplainRisk chases the tuple's exact group only; every explanation, error
// or not, is the one the whole-table chase gives.
func TestExplainRiskMatchesWholeTable(t *testing.T) {
	f := New()
	tables := []*Dataset{InflationGrowth(), withNulls()}
	for _, dist := range []Distribution{DistW, DistU, DistV} {
		tables = append(tables, Generate(GeneratorConfig{Tuples: 150, QIs: 3, Dist: dist, Seed: 91}))
	}
	measures := []RiskMeasure{
		ReIdentification{}, KAnonymity{K: 3}, IndividualRisk{Estimator: RatioEstimator},
		KAnonymity{K: 2, Attrs: []string{"Area"}}, LDiversity{L: 2, Sensitive: "Growth6mos"},
	}
	n := 0
	for _, d := range tables {
		for _, m := range measures {
			for _, r := range d.Rows {
				sameExplanation(t, f, d, m, r.ID)
				n++
			}
			sameExplanation(t, f, d, m, 1<<30) // no such tuple
		}
	}
	if n < 1500 {
		t.Fatalf("%d explanations compared, want at least 1500", n)
	}
}

// A library dataset may carry one id on several rows, in different groups
// and in the same one: the explanation picks among the riskout facts of every
// group a row with that id is in, as the whole-table chase does.
func TestExplainRiskDuplicateIDs(t *testing.T) {
	f := New()
	d := withNulls()
	d.Rows[5].ID = d.Rows[40].ID  // a fresh null's group of one first, then row 11's group
	d.Rows[60].ID = d.Rows[20].ID // twice in row 11's group
	d.Rows[7].ID = d.Rows[3].ID   // two other groups
	for _, m := range []RiskMeasure{ReIdentification{}, KAnonymity{K: 2}, IndividualRisk{Estimator: RatioEstimator}} {
		for _, i := range []int{3, 5, 7, 11, 20} {
			sameExplanation(t, f, d, m, d.Rows[i].ID)
		}
	}
	// The group of one would explain a risk of 1; row 40's group wins.
	if ex, _ := f.ExplainRisk(d, KAnonymity{K: 2}, d.Rows[5].ID); !strings.HasPrefix(ex, fmt.Sprintf("riskout(%d,0)", d.Rows[5].ID)) {
		t.Fatalf("tuple %d explained as\n%s", d.Rows[5].ID, ex)
	}
}

// An engine error that arises only in another group no longer fails the
// explanation: the whole-table chase divides by a zero weight sum that the
// tuple's own group never reaches. Every intake path refuses such weights;
// a library dataset can still carry them.
func TestExplainRiskIgnoresOtherGroups(t *testing.T) {
	f := New()
	d := InflationGrowth()
	zero := d.Rows[0]
	zero.Weight = 0
	_, err := explainWholeTable(f, d, ReIdentification{}, d.Rows[3].ID)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("whole-table chase: %v; the fixture no longer divides by zero", err)
	}
	without := d.Select(func(r *Row) bool { return r != zero })
	for _, r := range d.Rows[1:] {
		got, err := f.ExplainRisk(d, ReIdentification{}, r.ID)
		want, wantErr := explainWholeTable(f, without, ReIdentification{}, r.ID)
		if err != nil || wantErr != nil || got != want {
			t.Fatalf("tuple %d: got %q, %v; want %q, %v", r.ID, got, err, want, wantErr)
		}
	}
	if _, err := f.ExplainRisk(d, ReIdentification{}, zero.ID); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("the zero-weight tuple itself: %v, want division by zero", err)
	}

	// A group is exact: a row that differs from the tuple by a null's id
	// alone is in another one.
	d = withNulls()
	zero = d.Rows[30]
	zero.Weight = 0
	got, err := f.ExplainRisk(d, ReIdentification{}, d.Rows[25].ID)
	want, wantErr := explainWholeTable(f, d.Select(func(r *Row) bool { return r != zero }), ReIdentification{}, d.Rows[25].ID)
	if err != nil || wantErr != nil || got != want {
		t.Fatalf("beside another null: got %q, %v; want %q, %v", got, err, want, wantErr)
	}
}
