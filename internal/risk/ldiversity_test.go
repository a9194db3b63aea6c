package risk

import (
	"testing"

	"vadasa/internal/mdb"
)

// homogeneous builds a dataset where one 2-anonymous group shares a single
// sensitive value and another is diverse.
func homogeneous() *mdb.Dataset {
	d := mdb.NewDataset("homog", []mdb.Attribute{
		{Name: "Area", Category: mdb.QuasiIdentifier},
		{Name: "Sector", Category: mdb.QuasiIdentifier},
		{Name: "Growth", Category: mdb.NonIdentifying},
	})
	rows := [][3]string{
		{"North", "Textiles", "-20"}, // homogeneous group: both shrank
		{"North", "Textiles", "-20"},
		{"South", "Commerce", "5"}, // diverse group
		{"South", "Commerce", "12"},
	}
	for _, r := range rows {
		d.Append(&mdb.Row{Values: []mdb.Value{mdb.Const(r[0]), mdb.Const(r[1]), mdb.Const(r[2])}, Weight: 1})
	}
	return d
}

func TestLDiversityFlagsHomogeneousGroups(t *testing.T) {
	d := homogeneous()
	rs, err := LDiversity{L: 2, Sensitive: "Growth"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	want := []float64{1, 1, 0, 0}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("row %d risk = %g, want %g", i+1, rs[i], want[i])
		}
	}
}

func TestLDiversityValidation(t *testing.T) {
	d := homogeneous()
	if _, err := (LDiversity{L: 1, Sensitive: "Growth"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("L=1 accepted")
	}
	if _, err := (LDiversity{L: 2, Sensitive: "Nope"}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("unknown sensitive attribute accepted")
	}
	if _, err := (LDiversity{L: 2, Sensitive: "Area", Attrs: []string{"Area", "Sector"}}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Error("sensitive attribute inside explicit grouping set accepted")
	}
	// A quasi-identifier used as the sensitive attribute is auto-excluded
	// from the default grouping.
	if _, err := (LDiversity{L: 2, Sensitive: "Area"}).Assess(d, mdb.MaybeMatch); err != nil {
		t.Errorf("sensitive QI not auto-excluded: %v", err)
	}
}

// k-anonymity alone misses the homogeneity attack that l-diversity catches.
func TestLDiversityStricterThanKAnonymity(t *testing.T) {
	d := homogeneous()
	kan, err := KAnonymity{K: 2}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if kan[0] != 0 {
		t.Fatal("setup broken: group should be 2-anonymous")
	}
	ldiv, err := LDiversity{L: 2, Sensitive: "Growth"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if ldiv[0] != 1 {
		t.Fatal("homogeneity attack not flagged")
	}
}

// Suppressing a quasi-identifier merges a homogeneous group into a larger,
// more diverse one under maybe-match: risk falls.
func TestLDiversitySuppressionHelps(t *testing.T) {
	d := homogeneous()
	d.Rows[0].Values[1] = d.Nulls.Fresh() // Textiles -> ⊥
	d.Rows[1].Values[1] = d.Nulls.Fresh()
	rs, err := LDiversity{L: 2, Sensitive: "Growth"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	// Suppressed rows are still North-only: they match each other and no
	// one else; still homogeneous.
	if rs[0] != 1 {
		t.Fatalf("north group risk = %g, want 1 (still homogeneous)", rs[0])
	}
	d.Rows[0].Values[0] = d.Nulls.Fresh() // Area too: now matches everyone
	rs, err = LDiversity{L: 2, Sensitive: "Growth"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 0 {
		t.Fatalf("fully suppressed row risk = %g, want 0", rs[0])
	}
}

// A suppressed sensitive value counts as one potential extra distinct value.
func TestLDiversityNullSensitive(t *testing.T) {
	d := homogeneous()
	d.Rows[1].Values[2] = d.Nulls.Fresh() // one Growth suppressed
	rs, err := LDiversity{L: 2, Sensitive: "Growth"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 0 {
		t.Fatalf("group with suppressed sensitive value risk = %g, want 0", rs[0])
	}
}

func TestLDiversityInCycleConverges(t *testing.T) {
	d := homogeneous()
	// The anonymization cycle with l-diversity as the risk measure must
	// converge (rows 1-2 exhaust all quasi-identifiers).
	// This exercises the Assessor contract end to end.
	rs, err := LDiversity{L: 2, Sensitive: "Growth"}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0] != 1 {
		t.Fatal("setup broken")
	}
}
