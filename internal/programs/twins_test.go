package programs

import (
	"errors"
	"fmt"
	"math"
	"net/url"
	"os"
	"slices"
	"strings"
	"testing"

	"vadasa/internal/datalog"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// native instantiates the native measure a row of the twin table answers for.
func native(t *testing.T, tw Twin, k int) risk.Assessor {
	t.Helper()
	m, err := risk.Spec{Kind: tw.Kind, Estimator: tw.Estimator, K: k, MSU: 3, Sensitive: "Growth6mos", T: 0.3}.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkTwin holds a row's program to its native measure over d under the
// standard null semantics: tuple for tuple outside the groups the row says
// diverge, k-anonymity exactly and the weight sums to 1e-9 (the tolerance of
// benchmark/verify.go). It returns how many tuples sat in a diverging group
// and how many of those really scored differently.
func checkTwin(t *testing.T, tw Twin, m risk.Assessor, d *mdb.Dataset) (diverging, differed int) {
	t.Helper()
	want, err := m.Assess(d, mdb.StandardNulls)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assessor{Measure: m}.Assess(d, mdb.StandardNulls)
	if err != nil {
		t.Fatalf("%s on %s: %v", m.Name(), d.Name, err)
	}
	tol := 1e-9
	if tw.Kind == "k-anonymity" {
		tol = 0
	}
	groups := mdb.ComputeGroups(d, d.QuasiIdentifiers(), mdb.StandardNulls)
	for i := range d.Rows {
		off := math.Abs(got[i]-want[i]) > tol
		switch {
		case tw.Diverges != nil && tw.Diverges(groups[i]):
			diverging++
			if off {
				differed++
			}
		case off:
			t.Errorf("%s on %s, tuple %d (f=%d, ΣW=%g): declarative %g, native %g",
				m.Name(), d.Name, d.Rows[i].ID, groups[i].Freq, groups[i].WeightSum, got[i], want[i])
		}
	}
	return diverging, differed
}

// nullBearing is a V table after some suppression: a null per third row, one
// null shared by two rows, and weights low enough on a few rows that the
// sample exhausts the estimated population there.
func nullBearing() *mdb.Dataset {
	d := synth.Generate(synth.Config{Tuples: 200, QIs: 3, Dist: synth.DistV, Seed: 77})
	qi := d.QuasiIdentifiers()
	for i, r := range d.Rows {
		if i%3 == 0 {
			r.Values[qi[i%len(qi)]] = d.Nulls.Fresh()
		}
		if i%7 == 0 {
			r.Weight = 0.4
		}
	}
	d.Rows[1].Values[qi[0]] = d.Rows[0].Values[qi[0]]
	d.Name = "V200+nulls"
	return d
}

// The twin table answers, per measure, whether a declarative copy exists and
// where it may differ from the native one. Every row is held to that answer:
// a row with a program agrees with its native measure on null-free W/U/V and
// on a null-bearing table; a recorded divergence still exists (whoever
// resolves one must edit the row); a row without a program, and any measure
// under maybe-match, is refused.
func TestTwinTable(t *testing.T) {
	var kinds []string
	for _, tw := range Twins() {
		if len(kinds) == 0 || kinds[len(kinds)-1] != tw.Kind {
			kinds = append(kinds, tw.Kind)
		}
	}
	if want := risk.Kinds(); strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("twin table covers %v; the measure table has %v", kinds, want)
	}

	tables := []*mdb.Dataset{nullBearing()}
	for _, dist := range []synth.Dist{synth.DistW, synth.DistU, synth.DistV} {
		tables = append(tables, synth.Generate(synth.Config{Tuples: 200, QIs: 3, Dist: dist, Seed: 77}))
	}
	for _, tw := range Twins() {
		name := tw.Kind
		if tw.Kind == "individual-risk" {
			name += "/" + tw.Estimator.String()
		}
		t.Run(name, func(t *testing.T) {
			if tw.Program == nil {
				if tw.Diverges != nil || tw.Note != "" || tw.Name != "" {
					t.Error("a row without a program describes one")
				}
				_, err := Assessor{Measure: native(t, tw, 2)}.Assess(tables[0], mdb.StandardNulls)
				if !errors.Is(err, ErrNoTwin) {
					t.Errorf("assessing by reasoning: %v, want ErrNoTwin", err)
				}
				return
			}
			diverging, differed := 0, 0
			for _, d := range tables {
				for _, k := range []int{2, 4} {
					dv, df := checkTwin(t, tw, native(t, tw, k), d)
					diverging, differed = diverging+dv, differed+df
				}
			}
			if (tw.Diverges != nil) != (tw.Note != "") {
				t.Error("a divergence is recorded as both its groups and its note, or not at all")
			}
			if tw.Diverges != nil && differed == 0 {
				t.Errorf("the recorded divergence is gone (%d tuples in diverging groups, none scored differently): edit the row", diverging)
			}
			_, err := Assessor{Measure: native(t, tw, 2)}.Assess(tables[0], mdb.MaybeMatch)
			if err == nil || !strings.Contains(err.Error(), "labelled nulls are Skolem constants until it groups by maybe-match") {
				t.Errorf("maybe-match: %v, want the Skolem refusal", err)
			}
		})
	}
}

// riskFacts chases prog over d's tuple facts and returns the bits of every
// riskout value derived per tuple id, in the order Facts lists them.
func riskFacts(t *testing.T, prog *datalog.Program, d *mdb.Dataset) map[int][]uint64 {
	t.Helper()
	edb := datalog.NewDatabase()
	TupleFacts(edb, d)
	res, err := datalog.Run(prog, edb, nil)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	out := make(map[int][]uint64)
	for _, f := range res.Facts("riskout") {
		id := int(f[0].NumVal())
		out[id] = append(out[id], math.Float64bits(f[1].NumVal()))
	}
	return out
}

// Every twin program derives a tuple's riskout facts from the tuple facts of
// its exact group alone (Twin.Program): over the sub-table of the rows whose
// quasi-identifier cells equal the tuple's — the same constant or the same
// labelled null — they are the facts of the whole table, bit for bit. Once
// the reasoner groups by maybe-match this fails, and Framework.ExplainRisk
// must widen its group to the rows compatible with the tuple.
func TestTwinRiskIsGroupLocal(t *testing.T) {
	nb := nullBearing()
	qi := nb.QuasiIdentifiers()
	for i := 10; i < 40; i += 10 { // repeated vectors around the shared null
		for _, j := range qi {
			nb.Rows[i].Values[j] = nb.Rows[0].Values[j]
		}
	}
	tables := []*mdb.Dataset{nb}
	for _, dist := range []synth.Dist{synth.DistW, synth.DistU, synth.DistV} {
		tables = append(tables, synth.Generate(synth.Config{Tuples: 200, QIs: 3, Dist: dist, Seed: 77}))
	}
	for _, tw := range Twins() {
		if tw.Program == nil {
			continue
		}
		for _, k := range []int{2, 4} {
			prog := tw.Program(risk.Spec{Kind: tw.Kind, Estimator: tw.Estimator, K: k}, len(qi))
			for _, d := range tables {
				whole := riskFacts(t, prog, d)
				for i := 0; i < len(d.Rows); i += 3 {
					r := d.Rows[i]
					group := d.Select(func(o *mdb.Row) bool {
						for _, j := range qi {
							if o.Values[j] != r.Values[j] {
								return false
							}
						}
						return true
					})
					got := riskFacts(t, prog, group)[r.ID]
					if len(got) == 0 || !slices.Equal(got, whole[r.ID]) {
						t.Fatalf("%s (k=%d) on %s, tuple %d: riskout %x over its %d-row group, %x over the table",
							tw.Name, k, d.Name, r.ID, got, len(group.Rows), whole[r.ID])
					}
				}
			}
		}
	}
}

// The fixtures the agreement tests have always run, through the same check.
func TestReIdentificationAgreesWithNative(t *testing.T) {
	checkTwin(t, Twins()[0], risk.ReIdentification{}, synth.InflationGrowth())
}

func TestKAnonymityAgreesWithNative(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 200, QIs: 3, Dist: synth.DistV, Seed: 77})
	for _, k := range []int{2, 4} {
		checkTwin(t, Twins()[1], risk.KAnonymity{K: k}, d)
	}
}

func TestIndividualRiskAgreesWithNative(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 150, QIs: 3, Dist: synth.DistU, Seed: 5})
	checkTwin(t, Twins()[2], risk.IndividualRisk{Estimator: risk.Ratio}, d)
}

func TestIndividualRiskPosteriorAgreesWithNative(t *testing.T) {
	// Every combination unique, weights > 1: the closed form's home ground.
	if dv, _ := checkTwin(t, Twins()[3], risk.IndividualRisk{Estimator: risk.PosteriorSeries}, synth.InflationGrowth()); dv != 0 {
		t.Errorf("%d tuples of the figure-1 fixture share a combination", dv)
	}
}

// Above F = 1 the posterior program keeps the ratio — the divergence its row
// records, pinned to what it diverges to.
func TestIndividualRiskPosteriorMixedFrequencies(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 300, QIs: 3, Dist: synth.DistV, Seed: 23})
	posterior := risk.IndividualRisk{Estimator: risk.PosteriorSeries}
	checkTwin(t, Twins()[3], posterior, d)
	got, err := Assessor{Measure: posterior}.Assess(d, mdb.StandardNulls)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := risk.IndividualRisk{Estimator: risk.Ratio}.Assess(d, mdb.StandardNulls)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range mdb.ComputeGroups(d, d.QuasiIdentifiers(), mdb.StandardNulls) {
		if g.Freq > 1 && math.Abs(got[i]-ratio[i]) > 1e-9 {
			t.Errorf("tuple %d (f=%d): declarative %g, ratio %g", d.Rows[i].ID, g.Freq, got[i], ratio[i])
		}
	}
}

// Labelled nulls in the data must behave as the standard Skolem semantics in
// the declarative path: a suppressed value stays unique.
func TestDeclarativeUsesStandardNullSemantics(t *testing.T) {
	d := synth.Figure5()
	d.Rows[0].Values[d.AttrIndex("Sector")] = d.Nulls.Fresh()
	m := risk.KAnonymity{K: 2}
	checkTwin(t, Twins()[1], m, d)
	got, err := Assessor{Measure: m}.Assess(d, mdb.StandardNulls)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("suppressed tuple risk %g; want 1 under standard semantics", got[0])
	}
}

// A tuple the program derives no risk for fails the assessment instead of
// scoring 0: a weight of 0 makes 1/ΣW underivable.
func TestAssessorNeedsEveryTuple(t *testing.T) {
	d := synth.Figure5()
	d.Rows[0].Weight = 0
	_, err := Assessor{Measure: risk.ReIdentification{}}.Assess(d, mdb.StandardNulls)
	if err == nil {
		t.Fatal("a tuple without riskout was scored")
	}
}

// twinDocs renders the twin table the way README and DESIGN.md print it: one
// line per program, the measures without one gathered on the last.
func twinDocs() string {
	var b strings.Builder
	b.WriteString("| `measure` | declarative twin | where the two differ, and which is the specification |\n|---|---|---|\n")
	var none []string
	for _, tw := range Twins() {
		kind := "`" + tw.Kind + "`"
		if tw.Kind == "individual-risk" {
			// Named as clients name it: the estimator= value that parses to it.
			for _, name := range []string{"ratio", "posterior", "monte-carlo"} {
				sp, err := risk.ParseSpec(url.Values{"estimator": {name}}.Get)
				if err == nil && sp.Estimator == tw.Estimator {
					kind += " `estimator=" + name + "`"
				}
			}
		}
		if tw.Program == nil {
			none = append(none, kind)
			continue
		}
		note := "—"
		if tw.Note != "" {
			note = tw.Note
		}
		fmt.Fprintf(&b, "| %s | `programs.%s` | %s |\n", kind, tw.Name, note)
	}
	fmt.Fprintf(&b, "| %s | none | — |\n", strings.Join(none, ", "))
	return b.String()
}

// README and DESIGN.md print the twin table (paste the "want" of a failure
// back in).
func TestDocsMatchTwinTable(t *testing.T) {
	const begin, end = "<!-- twin table: begin -->\n", "<!-- twin table: end -->"
	for _, path := range []string{"../../README.md", "../../DESIGN.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(string(doc), begin)
		got, _, ok2 := strings.Cut(rest, end)
		if !ok || !ok2 {
			t.Fatalf("%s has no %s…%s block", path, strings.TrimSpace(begin), end)
		}
		if want := twinDocs(); got != want {
			t.Errorf("%s: the twin table is out of date; want:\n%s\ngot:\n%s", path, want, got)
		}
	}
}
