package risk_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// sameAsReference holds l-diversity and t-closeness over attrs, at two
// parameters each and under both semantics, to the bodies they replaced:
// scores bitwise — the comparison at t-closeness's bound is the same integer
// expression on both sides — and errors by their text.
func sameAsReference(t *testing.T, label string, d *mdb.Dataset, attrs []string) {
	t.Helper()
	ctx := context.Background()
	for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
		for _, m := range []risk.Assessor{
			risk.LDiversity{L: 2, Sensitive: "S", Attrs: attrs},
			risk.LDiversity{L: 3, Sensitive: "S", Attrs: attrs},
			risk.TCloseness{T: 0.3, Sensitive: "S", Attrs: attrs},
			risk.TCloseness{T: 0.1, Sensitive: "S", Attrs: attrs},
		} {
			var want []float64
			var wantErr error
			switch m := m.(type) {
			case risk.LDiversity:
				want, wantErr = risk.ReferenceLDiversity(ctx, m, d, sem)
			case risk.TCloseness:
				want, wantErr = risk.ReferenceTCloseness(ctx, m, d, sem)
			}
			got, err := risk.AssessContext(ctx, m, d, sem)
			where := fmt.Sprintf("%s: %s over %v under %s", label, m.Name(), attrs, sem)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, the reference's %v", where, err, wantErr)
			}
			sameBits(t, where, got, want)
		}
	}
}

// The two attribute-disclosure measures on the grouping kernel equal the
// quadratic bodies they replaced (reference_test.go) on random tables —
// null-free and with about one quasi-identifier cell in eight null, the
// sensitive attribute beside the quasi-identifiers and among them (so that it
// holds nulls and the tape suppresses it), grouping by the default attributes
// and by a subset — with the shapes a random draw rarely makes planted: a row
// null on every grouping attribute, and a tuple none of whose compatible rows
// holds a sensitive constant.
func TestAttributeDisclosureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	for trial := 0; trial < 6; trial++ {
		for _, sensQI := range tableVariants {
			for _, nullOneIn := range []int{0, 8} {
				d := newTableDataset(rng, 0, sensQI)
				d.nullOneIn = nullOneIn
				for r := 60 + rng.Intn(140); r > 0; r-- {
					d.appendRow()
				}
				label := fmt.Sprintf("trial %d sensQI %v nulls 1/%d", trial, sensQI, nullOneIn)
				for step := 0; step < 5; step++ {
					switch step {
					case 0: // the table as drawn
					case 1:
						for attr := 0; attr < 3; attr++ {
							d.Rows[7].Values[attr] = d.Nulls.Fresh()
						}
					case 2:
						hidden := d.Rows[11]
						for _, r := range d.Rows {
							if mdb.CompatibleTuple(hidden.Values, r.Values, []int{0, 1, 2}, mdb.MaybeMatch) {
								r.Values[3] = d.Nulls.Fresh()
							}
						}
						scores, err := risk.TCloseness{T: 0.9, Sensitive: "S"}.Assess(d.Dataset, mdb.MaybeMatch)
						if err != nil || scores[11] != 1 {
							t.Fatalf("%s: a tuple with no sensitive value in reach scores %v (%v), want 1: distance 1 exceeds any bound", label, scores[11], err)
						}
					default:
						for i := 0; i < 10; i++ {
							d.suppress()
						}
					}
					for _, attrs := range [][]string{nil, {"A", "C"}} {
						sameAsReference(t, fmt.Sprintf("%s step %d", label, step), d.Dataset, attrs)
					}
				}
			}
		}
	}

	// No sensitive constant at all: t-closeness has no distribution to be
	// close to, and says so in the reference's words.
	d := newTableDataset(rng, 40, true)
	for _, r := range d.Rows {
		r.Values[3] = d.Nulls.Fresh()
	}
	sameAsReference(t, "sensitive column all null", d.Dataset, nil)
	if _, err := (risk.TCloseness{T: 0.3, Sensitive: "S"}).Assess(d.Dataset, mdb.MaybeMatch); err == nil {
		t.Fatal("t-closeness scored a table with no sensitive constant")
	}
}
