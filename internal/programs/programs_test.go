package programs

import (
	"math"
	"sort"
	"testing"

	"vadasa/internal/categorize"
	"vadasa/internal/cluster"
	"vadasa/internal/datalog"
	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// runProgram evaluates a program over a fresh database loaded by setup.
func runProgram(t *testing.T, p *datalog.Program, setup func(*datalog.Database)) *datalog.Result {
	t.Helper()
	db := datalog.NewDatabase()
	setup(db)
	res, err := datalog.Run(p, db, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestControlAgreesWithNative(t *testing.T) {
	g := cluster.NewGraph()
	edges := []struct {
		x, y string
		w    float64
	}{
		{"a", "b", 0.6}, {"a", "e", 0.7}, {"b", "c", 0.3}, {"e", "c", 0.3},
		{"c", "d", 0.9}, {"d", "f", 0.4}, {"x", "f", 0.2},
	}
	for _, e := range edges {
		if err := g.AddOwnership(e.x, e.y, e.w); err != nil {
			t.Fatal(err)
		}
	}
	res := runProgram(t, Control(), func(db *datalog.Database) {
		for _, e := range edges {
			db.Add("own", datalog.Str(e.x), datalog.Str(e.y), datalog.Num(e.w))
		}
	})
	native := g.Controls()
	var nativePairs, declPairs [][2]string
	for x, ys := range native {
		for y := range ys {
			nativePairs = append(nativePairs, [2]string{x, y})
		}
	}
	for _, f := range res.Facts("rel") {
		declPairs = append(declPairs, [2]string{f[0].StrVal(), f[1].StrVal()})
	}
	sortPairs := func(ps [][2]string) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i][0] != ps[j][0] {
				return ps[i][0] < ps[j][0]
			}
			return ps[i][1] < ps[j][1]
		})
	}
	sortPairs(nativePairs)
	sortPairs(declPairs)
	if len(nativePairs) != len(declPairs) {
		t.Fatalf("control relations differ: native %v, declarative %v", nativePairs, declPairs)
	}
	for i := range nativePairs {
		if nativePairs[i] != declPairs[i] {
			t.Fatalf("control relations differ at %d: native %v, declarative %v",
				i, nativePairs[i], declPairs[i])
		}
	}
}

func TestClusterRiskAgreesWithNative(t *testing.T) {
	entities := []string{"a", "b", "c", "x"}
	risks := map[string]float64{"a": 0.5, "b": 0.2, "c": 0.1, "x": 0.3}
	rels := [][2]string{{"a", "b"}, {"b", "c"}}

	res := runProgram(t, ClusterRisk(), func(db *datalog.Database) {
		for _, e := range entities {
			db.Add("entity", datalog.Str(e))
			db.Add("risk", datalog.Str(e), datalog.Num(risks[e]))
		}
		for _, r := range rels {
			db.Add("rel", datalog.Str(r[0]), datalog.Str(r[1]))
		}
	})

	g := cluster.NewGraph()
	for _, r := range rels {
		if err := g.AddOwnership(r[0], r[1], 0.6); err != nil {
			t.Fatal(err)
		}
	}
	native := cluster.CombinedRisk(risks, g.Clusters(entities))

	for _, f := range res.Facts("riskclust") {
		e := f[0].StrVal()
		got := f[1].NumVal()
		if math.Abs(got-native[e]) > 1e-9 {
			t.Errorf("entity %s: declarative %g, native %g", e, got, native[e])
		}
	}
	if got := len(res.Facts("riskclust")); got != len(entities) {
		t.Errorf("riskclust facts = %d, want %d", got, len(entities))
	}
}

func TestRecodingAgreesWithHierarchy(t *testing.T) {
	h := hierarchy.ItalianGeography()
	cities := []string{"Milano", "Torino", "Roma", "Napoli"}
	res := runProgram(t, Recoding(), func(db *datalog.Database) {
		HierarchyFacts(db, h)
		for _, c := range cities {
			db.Add("needrecode", datalog.Str("Area"), datalog.Str(c))
		}
	})
	for _, c := range cities {
		want, _ := h.RollUp("Area", c)
		found := false
		for _, f := range res.Facts("recode") {
			if f[1].StrVal() == c {
				found = true
				if f[2].StrVal() != want {
					t.Errorf("recode(%s) = %s, want %s", c, f[2].StrVal(), want)
				}
			}
		}
		if !found {
			t.Errorf("no recode fact for %s", c)
		}
	}
}

// Algorithm 6's combination generation: 2^q − 1 combinations per tuple, each
// a distinct labelled null with the right membership facts.
func TestCombinationsGeneratesPowerset(t *testing.T) {
	attrs := []string{"area", "sector", "employees"}
	res := runProgram(t, Combinations(), func(db *datalog.Database) {
		db.Add("tuplei", datalog.Str("t1"))
		db.Add("tuplei", datalog.Str("t2"))
		for i, a := range attrs {
			db.Add("qiord", datalog.Str(a), datalog.Num(float64(i+1)))
		}
	})
	// Membership sets per combination id, per tuple.
	members := make(map[string][]string) // null key -> attrs
	for _, f := range res.Facts("inc") {
		members[f[1].Key()] = append(members[f[1].Key()], f[0].StrVal())
	}
	perTuple := make(map[string]map[string]bool) // tuple -> set signatures
	for _, f := range res.Facts("comb") {
		tid := f[1].StrVal()
		if perTuple[tid] == nil {
			perTuple[tid] = make(map[string]bool)
		}
		ms := append([]string(nil), members[f[0].Key()]...)
		sort.Strings(ms)
		sig := ""
		for _, m := range ms {
			sig += m + ","
		}
		perTuple[tid][sig] = true
	}
	for _, tid := range []string{"t1", "t2"} {
		if got := len(perTuple[tid]); got != 7 { // 2^3 - 1
			t.Errorf("tuple %s has %d distinct combinations, want 7: %v",
				tid, got, perTuple[tid])
		}
	}
}

func TestCategorizationProgramMatchesNative(t *testing.T) {
	attrs := []string{"Id", "Area", "Sector", "Employees", "Weight", "FluxCapacitance"}
	exp := []categorize.Entry{
		{Attr: "id", Category: mdb.Identifier},
		{Attr: "geographic area", Category: mdb.QuasiIdentifier},
		{Attr: "product sector", Category: mdb.QuasiIdentifier},
		{Attr: "employees", Category: mdb.QuasiIdentifier},
		{Attr: "sampling weight", Category: mdb.Weight},
	}
	sims := []categorize.Similarity{
		categorize.Exact{}, categorize.Normalized{}, categorize.TokenOverlap{Min: 0.5},
	}

	res := runProgram(t, Categorization(), func(db *datalog.Database) {
		CategorizationEDB(db, "I&G", attrs, exp, sims)
	})
	cats, unknown, err := DecodeCategories(res, "I&G")
	if err != nil {
		t.Fatal(err)
	}

	native := (&categorize.Categorizer{Experience: exp, Sims: sims, Consolidate: true}).Categorize(attrs)
	for attr, want := range native.Categories {
		if got, ok := cats[attr]; !ok || got != want {
			t.Errorf("attr %s: declarative %v (present %v), native %v", attr, got, ok, want)
		}
	}
	if len(unknown) != 1 || unknown[0] != "FluxCapacitance" {
		t.Errorf("unknown = %v, want [FluxCapacitance]", unknown)
	}
	if len(res.Violations) != 0 {
		t.Errorf("unexpected violations: %v", res.Violations)
	}
}

func TestCategorizationProgramDetectsConflicts(t *testing.T) {
	attrs := []string{"code"}
	exp := []categorize.Entry{
		{Attr: "customer code", Category: mdb.Identifier},
		{Attr: "branch code", Category: mdb.QuasiIdentifier},
	}
	sims := []categorize.Similarity{categorize.TokenOverlap{Min: 0.4}}
	res := runProgram(t, Categorization(), func(db *datalog.Database) {
		CategorizationEDB(db, "db", attrs, exp, sims)
	})
	if len(res.Violations) == 0 {
		t.Fatal("conflicting categorization produced no EGD violation")
	}
	cats, _, err := DecodeCategories(res, "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cats["code"]; ok {
		t.Error("conflicted attribute categorized anyway")
	}
}

// The derived risk facts are explainable down to the extensional component.
func TestRiskProvenance(t *testing.T) {
	d := synth.Figure5()
	q := len(d.QuasiIdentifiers())
	res := runProgram(t, KAnonymity(q, 2), func(db *datalog.Database) {
		TupleFacts(db, d)
	})
	ex, err := res.Explain("riskout", datalog.Num(1), datalog.Num(1))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(ex) == 0 {
		t.Fatal("empty explanation")
	}
}

func TestWeightEstimationAgreesWithNative(t *testing.T) {
	d := synth.Figure5()
	q := len(d.QuasiIdentifiers())
	res := runProgram(t, WeightEstimation(q, 30), func(db *datalog.Database) {
		TupleFacts(db, d)
	})
	native := synth.Figure5()
	if err := risk.EstimateWeights(native, 30); err != nil {
		t.Fatal(err)
	}
	got := make(map[int]float64)
	for _, f := range res.Facts("weightout") {
		got[int(f[0].NumVal())] = f[1].NumVal()
	}
	for _, r := range native.Rows {
		if got[r.ID] != r.Weight {
			t.Errorf("tuple %d: declarative %g, native %g", r.ID, got[r.ID], r.Weight)
		}
	}
}

// TupleFacts loads through the engine's row loader; the relation it builds
// must be the one the per-cell encoding built — Add over boxed values, one
// labelled null per suppressed cell, identifiers dropped — fact for fact in
// insertion order.
func TestTupleFactsMatchesPerCellEncoding(t *testing.T) {
	d := synth.InflationGrowth().Clone()
	qi := d.QuasiIdentifiers()
	for i, r := range d.Rows {
		if i%3 == 0 {
			r.Values[qi[i%len(qi)]] = d.Nulls.Fresh()
		}
	}
	d.Rows[1].Values[qi[0]] = d.Rows[0].Values[qi[0]] // a null shared by two rows
	d.Rows = append(d.Rows, d.Rows[2])                // a duplicate tuple

	want := datalog.NewDatabase()
	for _, r := range d.Rows {
		args := []datalog.Val{datalog.Num(float64(r.ID))}
		for _, i := range qi {
			if v := r.Values[i]; v.IsNull() {
				args = append(args, datalog.NullVal(v.NullID()))
			} else {
				args = append(args, datalog.Str(v.Constant()))
			}
		}
		want.Add("tuple", append(args, datalog.Num(r.Weight))...)
	}
	got := datalog.NewDatabase()
	TupleFacts(got, d)

	if got.Len() != want.Len() || got.Len() != len(d.Rows)-1 {
		t.Fatalf("loaded %d facts, reference %d, rows %d", got.Len(), want.Len(), len(d.Rows))
	}
	g, w := got.Rows("tuple"), want.Rows("tuple")
	for i := 0; i < w.Len(); i++ {
		if g.Row(i).Tuple().Key() != w.Row(i).Tuple().Key() {
			t.Fatalf("fact %d: %s, reference %s", i, g.Row(i).Tuple(), w.Row(i).Tuple())
		}
		if n := g.Row(i).Len(); n != len(qi)+2 {
			t.Fatalf("fact %d has %d arguments, want %d (identifiers dropped)", i, n, len(qi)+2)
		}
	}
}

// DecodeRisk walks the stored rows; it must return the map the sorted,
// materialized walk returned, in particular the maximum when a program
// derives several riskout refinements per tuple.
func TestDecodeRiskMatchesFactsWalk(t *testing.T) {
	d := synth.InflationGrowth()
	prog, err := datalog.Parse(`
		riskout(I,R) :- tuple(I,_A,_B,_C,_D,_E,W), R = 1 / W.
		riskout(I,R) :- tuple(I,_A,_B,_C,_D,_E,W), R = 2 / W.
		riskout(I,0) :- tuple(I,_A,_B,_C,_D,_E,_W).
	`)
	if err != nil {
		t.Fatal(err)
	}
	res := runProgram(t, prog, func(db *datalog.Database) { TupleFacts(db, d) })
	want := make(map[int]float64)
	for _, f := range res.Facts("riskout") {
		id, r := int(f[0].NumVal()), f[1].NumVal()
		if cur, ok := want[id]; !ok || r > cur {
			want[id] = r
		}
	}
	got := DecodeRisk(res)
	if len(got) != len(d.Rows) || len(res.Facts("riskout")) != 3*len(d.Rows) {
		t.Fatalf("%d risks from %d facts over %d rows", len(got), len(res.Facts("riskout")), len(d.Rows))
	}
	for id, r := range want {
		if got[id] != r {
			t.Errorf("tuple %d: risk %v, reference %v", id, got[id], r)
		}
	}
}
