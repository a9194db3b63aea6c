package anon

import (
	"math"
	"strings"
	"testing"

	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// Section 4.4: anonymizing tuple 1 of Figure 5a should suppress Sector —
// the most selective value — which removes every sample unique in one step.
func TestSuppressionChoosesMostSelective(t *testing.T) {
	d := synth.Figure5()
	qi := d.QuasiIdentifiers()
	s := LocalSuppression{Choice: AttrMostSelective}
	decisions, ok := s.Step(NewContext(d, d.QuasiIdentifiers()), 0)
	if !ok || len(decisions) != 1 {
		t.Fatalf("Step: %v, %v", decisions, ok)
	}
	if decisions[0].Attr != "Sector" {
		t.Fatalf("suppressed %s, want Sector", decisions[0].Attr)
	}
	if !d.Rows[0].Values[d.AttrIndex("Sector")].IsNull() {
		t.Fatal("value not replaced by a labelled null")
	}
	// Frequency should now be 5 (Figure 5b).
	if f := mdb.Frequencies(d, qi, mdb.MaybeMatch)[0]; f != 5 {
		t.Fatalf("frequency after suppression = %d, want 5", f)
	}
}

func TestSuppressionSchemaOrder(t *testing.T) {
	d := synth.Figure5()
	s := LocalSuppression{Choice: AttrSchemaOrder}
	decisions, _ := s.Step(NewContext(d, d.QuasiIdentifiers()), 0)
	if decisions[0].Attr != "Area" {
		t.Fatalf("schema-order suppressed %s, want Area", decisions[0].Attr)
	}
}

func TestSuppressionLeastSelective(t *testing.T) {
	d := synth.Figure5()
	s := LocalSuppression{Choice: AttrLeastSelective}
	decisions, _ := s.Step(NewContext(d, d.QuasiIdentifiers()), 0)
	// For tuple 1 the least selective values are Roma/1000+/0-30 (5 each);
	// ties break on schema order, so Area is chosen.
	if decisions[0].Attr != "Area" {
		t.Fatalf("least-selective suppressed %s, want Area", decisions[0].Attr)
	}
}

func TestSuppressionExhausted(t *testing.T) {
	d := synth.Figure5()
	qi := d.QuasiIdentifiers()
	s := LocalSuppression{}
	for i := 0; i < len(qi); i++ {
		if _, ok := s.Step(NewContext(d, d.QuasiIdentifiers()), 0); !ok {
			t.Fatalf("step %d failed early", i)
		}
	}
	if _, ok := s.Step(NewContext(d, d.QuasiIdentifiers()), 0); ok {
		t.Fatal("fully suppressed tuple still anonymizable")
	}
}

// Figure 5b: recoding Area rolls Milano and Torino up to North for the
// whole column, making tuples 6 and 7 indistinguishable.
func TestGlobalRecodingFigure5(t *testing.T) {
	d := synth.Figure5()
	qi := d.QuasiIdentifiers()
	g := GlobalRecoding{KB: hierarchy.ItalianGeography(), Choice: AttrMostSelective}
	decisions, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 5) // tuple 6 (Milano)
	if !ok {
		t.Fatal("recoding step failed")
	}
	dec := decisions[0]
	if dec.Attr != "Area" || dec.New != mdb.Const("North") {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.AffectedRows != 1 { // only Milano rows carry the old value
		t.Fatalf("affected rows = %d", dec.AffectedRows)
	}
	// Torino is a separate value: recode tuple 7 too.
	if _, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 6); !ok {
		t.Fatal("second recoding step failed")
	}
	freqs := mdb.Frequencies(d, qi, mdb.MaybeMatch)
	if freqs[5] != 2 || freqs[6] != 2 {
		t.Fatalf("frequencies after recoding = %v", freqs[5:])
	}
}

func TestGlobalRecodingAffectsWholeColumn(t *testing.T) {
	d := synth.Figure5()
	g := GlobalRecoding{KB: hierarchy.ItalianGeography()}
	// Tuple 1 (Roma): all five Roma rows must be recoded to Center.
	decisions, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 0)
	if !ok {
		t.Fatal("recoding failed")
	}
	if decisions[0].AffectedRows != 5 {
		t.Fatalf("affected rows = %d, want 5", decisions[0].AffectedRows)
	}
	area := d.AttrIndex("Area")
	for i := 0; i < 5; i++ {
		if d.Rows[i].Values[area] != mdb.Const("Center") {
			t.Fatalf("row %d area = %v", i+1, d.Rows[i].Values[area])
		}
	}
}

func TestGlobalRecodingPerTuple(t *testing.T) {
	d := synth.Figure5()
	g := GlobalRecoding{KB: hierarchy.ItalianGeography(), PerTuple: true}
	decisions, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 0)
	if !ok || decisions[0].AffectedRows != 1 {
		t.Fatalf("per-tuple recoding affected %d rows", decisions[0].AffectedRows)
	}
	area := d.AttrIndex("Area")
	if d.Rows[1].Values[area] != mdb.Const("Roma") {
		t.Fatal("per-tuple recoding leaked to other rows")
	}
}

func TestGlobalRecodingExhausted(t *testing.T) {
	d := synth.Figure5()
	g := GlobalRecoding{KB: hierarchy.ItalianGeography()}
	// Climb Roma -> Center -> Italia; after that Area is at the top and
	// the other attributes have no hierarchy: no step possible.
	if _, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 0); !ok {
		t.Fatal("first step failed")
	}
	if _, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 0); !ok {
		t.Fatal("second step failed")
	}
	if _, ok := g.Step(NewContext(d, d.QuasiIdentifiers()), 0); ok {
		t.Fatal("step possible beyond hierarchy top")
	}
	if g2 := (GlobalRecoding{}); true {
		if _, ok := g2.Step(NewContext(d, d.QuasiIdentifiers()), 0); ok {
			t.Fatal("recoding without a KB succeeded")
		}
	}
}

func TestCompositeFallsBack(t *testing.T) {
	d := synth.Figure5()
	c := Composite{
		GlobalRecoding{KB: hierarchy.ItalianGeography()},
		LocalSuppression{Choice: AttrMostSelective},
	}
	if !strings.Contains(c.Name(), "global-recoding") || !strings.Contains(c.Name(), "local-suppression") {
		t.Fatalf("composite name = %q", c.Name())
	}
	// First two steps recode Area up to Italia, further steps suppress.
	methods := []string{}
	for i := 0; i < 3; i++ {
		ds, ok := c.Step(NewContext(d, d.QuasiIdentifiers()), 0)
		if !ok {
			t.Fatalf("composite step %d failed", i)
		}
		methods = append(methods, ds[0].Method)
	}
	if methods[0] != "global-recoding" || methods[1] != "global-recoding" || methods[2] != "local-suppression" {
		t.Fatalf("methods = %v", methods)
	}
}

func kCycle(k int, sem mdb.Semantics, d *mdb.Dataset) (*Result, error) {
	return Run(d, Config{
		Assessor:   risk.KAnonymity{K: k},
		Threshold:  0.5,
		Anonymizer: LocalSuppression{Choice: AttrMostSelective},
		Semantics:  sem,
		Order:      OrderLessSignificantFirst,
	})
}

func TestCycleFigure5KAnonymity(t *testing.T) {
	d := synth.Figure5()
	res, err := kCycle(2, mdb.MaybeMatch, d)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Input untouched.
	if d.NullCount() != 0 {
		t.Fatal("input dataset was mutated")
	}
	// Every tuple must now be 2-anonymous.
	freqs := mdb.Frequencies(res.Dataset, res.Dataset.QuasiIdentifiers(), mdb.MaybeMatch)
	for i, f := range freqs {
		if f < 2 {
			t.Errorf("row %d frequency %d < 2 after cycle", i+1, f)
		}
	}
	if len(res.Residual) != 0 {
		t.Errorf("residual rows: %v", res.Residual)
	}
	if res.InitialRisky != 3 { // tuples 1, 6, 7
		t.Errorf("initial risky = %d, want 3", res.InitialRisky)
	}
	if res.NullsInjected == 0 || res.NullsInjected != res.Dataset.NullCount() {
		t.Errorf("nulls injected = %d, dataset has %d", res.NullsInjected, res.Dataset.NullCount())
	}
	if res.InfoLoss <= 0 || res.InfoLoss > 1 {
		t.Errorf("info loss = %g", res.InfoLoss)
	}
	for _, dec := range res.Decisions {
		if dec.Method != "local-suppression" || dec.Iteration < 1 || dec.Risk <= 0.5 {
			t.Errorf("suspect decision: %+v", dec)
		}
	}
}

// Under the standard Skolem semantics suppression never helps: the cycle
// must exhaust the risky tuples (all quasi-identifiers suppressed) and
// report them as residual — the proliferation of Figure 7c.
func TestCycleStandardSemanticsProliferates(t *testing.T) {
	d := synth.Figure5()
	maybe, err := kCycle(2, mdb.MaybeMatch, d)
	if err != nil {
		t.Fatal(err)
	}
	std, err := kCycle(2, mdb.StandardNulls, d)
	if err != nil {
		t.Fatal(err)
	}
	if std.NullsInjected <= maybe.NullsInjected {
		t.Fatalf("standard semantics injected %d nulls, maybe-match %d",
			std.NullsInjected, maybe.NullsInjected)
	}
	// All QIs of the risky tuples end up suppressed, and the tuples stay
	// risky.
	if want := 3 * len(d.QuasiIdentifiers()); std.NullsInjected != want {
		t.Errorf("standard nulls = %d, want %d", std.NullsInjected, want)
	}
	if len(std.Residual) != 3 {
		t.Errorf("standard residual = %v, want 3 rows", std.Residual)
	}
}

func TestCycleReIdentificationRisk(t *testing.T) {
	d := synth.InflationGrowth()
	res, err := Run(d, Config{
		Assessor:   risk.ReIdentification{},
		Threshold:  0.02, // flags tuples with group weight < 50: only tuple 15 (1/30)
		Anonymizer: LocalSuppression{Choice: AttrMostSelective},
		Semantics:  mdb.MaybeMatch,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.InitialRisky != 1 {
		t.Fatalf("initial risky = %d, want 1 (tuple 15)", res.InitialRisky)
	}
	rs, _ := risk.ReIdentification{}.Assess(res.Dataset, mdb.MaybeMatch)
	for i, r := range rs {
		if r > 0.02 {
			t.Errorf("tuple %d risk %g still above threshold", i+1, r)
		}
	}
}

func TestCycleWithRecodingAndSuppression(t *testing.T) {
	d := synth.Figure5()
	res, err := Run(d, Config{
		Assessor:  risk.KAnonymity{K: 2},
		Threshold: 0.5,
		Anonymizer: Composite{
			GlobalRecoding{KB: hierarchy.ItalianGeography(), Choice: AttrMostSelective},
			LocalSuppression{Choice: AttrMostSelective},
		},
		Semantics: mdb.MaybeMatch,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Residual) != 0 {
		t.Errorf("residual: %v", res.Residual)
	}
	// Recoding must have been used (Milano/Torino roll up to North).
	sawRecode := false
	for _, dec := range res.Decisions {
		if dec.Method == "global-recoding" {
			sawRecode = true
		}
	}
	if !sawRecode {
		t.Error("composite cycle never recoded")
	}
}

func TestCycleValidatesConfig(t *testing.T) {
	d := synth.Figure5()
	if _, err := Run(d, Config{Threshold: 0.5, Anonymizer: LocalSuppression{}}); err == nil {
		t.Error("missing assessor accepted")
	}
	if _, err := Run(d, Config{Assessor: risk.KAnonymity{K: 2}, Threshold: 0.5}); err == nil {
		t.Error("missing anonymizer accepted")
	}
	if _, err := Run(d, Config{Assessor: risk.KAnonymity{K: 2}, Threshold: 1.5, Anonymizer: LocalSuppression{}}); err == nil {
		t.Error("threshold > 1 accepted")
	}
	// No risk exceeds NaN: accepted, it releases the input as it came.
	if _, err := Run(d, Config{Assessor: risk.KAnonymity{K: 2}, Threshold: math.NaN(), Anonymizer: LocalSuppression{}}); err == nil {
		t.Error("threshold NaN accepted")
	}
	noQI := mdb.NewDataset("noqi", []mdb.Attribute{{Name: "A", Category: mdb.NonIdentifying}})
	if _, err := Run(noQI, Config{Assessor: risk.KAnonymity{K: 2}, Threshold: 0.5, Anonymizer: LocalSuppression{}}); err == nil {
		t.Error("dataset without QIs accepted")
	}
}

func TestCycleOnGeneratedData(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 3000, QIs: 4, Dist: synth.DistU, Seed: 17})
	for _, order := range []TupleOrder{OrderLessSignificantFirst, OrderByRiskDesc, OrderByID} {
		res, err := Run(d, Config{
			Assessor:   risk.KAnonymity{K: 3},
			Threshold:  0.5,
			Anonymizer: LocalSuppression{Choice: AttrMostSelective},
			Semantics:  mdb.MaybeMatch,
			Order:      order,
		})
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		freqs := mdb.Frequencies(res.Dataset, res.Dataset.QuasiIdentifiers(), mdb.MaybeMatch)
		for i, f := range freqs {
			if f < 3 {
				t.Fatalf("%v: row %d frequency %d < 3", order, i, f)
			}
		}
		if res.NullsInjected == 0 {
			t.Fatalf("%v: no nulls injected on an unbalanced dataset", order)
		}
	}
}

// Higher k must never need fewer nulls (the monotone trend of Figure 7a).
func TestNullsMonotoneInK(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 2000, QIs: 4, Dist: synth.DistU, Seed: 21})
	prev := -1
	for k := 2; k <= 5; k++ {
		res, err := kCycle(k, mdb.MaybeMatch, d)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.NullsInjected < prev {
			t.Fatalf("k=%d injected %d nulls, k=%d injected %d",
				k, res.NullsInjected, k-1, prev)
		}
		prev = res.NullsInjected
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{RowID: 7, Attr: "Sector", Old: mdb.Const("Textiles"),
		New: mdb.Null(3), Method: "local-suppression", Risk: 1, Iteration: 2, AffectedRows: 1}
	s := d.String()
	// Cell values are rendered as digests: the decision log is an
	// operational surface and must not carry raw microdata. Labelled
	// nulls are already anonymous and keep their ⊥i form.
	for _, want := range []string{"tuple 7", "Sector", mdb.Const("Textiles").Redacted(), "⊥3", "local-suppression"} {
		if !strings.Contains(s, want) {
			t.Errorf("Decision.String() = %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "Textiles") {
		t.Errorf("Decision.String() = %q leaks the raw cell value", s)
	}
}

func TestHeuristicNames(t *testing.T) {
	if AttrMostSelective.String() == "" || OrderLessSignificantFirst.String() == "" {
		t.Fatal("empty heuristic names")
	}
	if AttrChoice(99).String() == OrderByID.String() {
		t.Fatal("unexpected name collision")
	}
}

func TestResultExplainTupleAndNullsByAttribute(t *testing.T) {
	d := synth.Figure5()
	res, err := kCycle(2, mdb.MaybeMatch, d)
	if err != nil {
		t.Fatal(err)
	}
	// Tuple 1 was anonymized; its decision log is non-empty and targeted.
	decs := res.ExplainTuple(1)
	if len(decs) == 0 {
		t.Fatal("no decisions for tuple 1")
	}
	for _, dec := range decs {
		if dec.RowID != 1 {
			t.Fatalf("foreign decision: %+v", dec)
		}
	}
	if got := res.ExplainTuple(2); len(got) != 0 {
		t.Fatalf("tuple 2 was never risky but has decisions: %v", got)
	}
	byAttr := res.NullsByAttribute()
	total := 0
	for _, n := range byAttr {
		total += n
	}
	if total != res.NullsInjected {
		t.Fatalf("per-attribute nulls %d != total %d", total, res.NullsInjected)
	}
}
