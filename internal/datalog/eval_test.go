package datalog

import (
	"strings"
	"testing"
)

func run(t *testing.T, src string, edb *Database) *Result {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if edb == nil {
		edb = NewDatabase()
	}
	res, err := Run(p, edb, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestTransitiveClosure(t *testing.T) {
	res := run(t, `
		edge(a,b). edge(b,c). edge(c,d).
		path(X,Y) :- edge(X,Y).
		path(X,Z) :- path(X,Y), edge(Y,Z).
	`, nil)
	if got := len(res.Facts("path")); got != 6 {
		t.Fatalf("path has %d facts, want 6: %v", got, res.Facts("path"))
	}
	if !res.Has("path", Str("a"), Str("d")) {
		t.Error("missing path(a,d)")
	}
}

// A run derives into the database it is handed: the result's database is
// the input itself, not a copy of it.
func TestRunEvaluatesInItsDatabase(t *testing.T) {
	edb := NewDatabase()
	edb.Add("edge", Str("a"), Str("b"))
	res := run(t, `path(X,Y) :- edge(X,Y).`, edb)
	if res.DB() != edb || edb.Len() != 2 {
		t.Fatalf("the run evaluated in a copy: input holds %d facts, result %d", edb.Len(), res.DB().Len())
	}
}

func TestStratifiedNegation(t *testing.T) {
	res := run(t, `
		node(a). node(b). node(c).
		covered(a). covered(b).
		uncovered(X) :- node(X), not covered(X).
	`, nil)
	facts := res.Facts("uncovered")
	if len(facts) != 1 || facts[0][0].StrVal() != "c" {
		t.Fatalf("uncovered = %v", facts)
	}
}

func TestNegationThroughRecursionRejected(t *testing.T) {
	p := MustParse(`
		p(X) :- q(X), not p(X).
		q(a).
	`)
	if _, err := Run(p, NewDatabase(), nil); err == nil ||
		!strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("err = %v, want stratification error", err)
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	res := run(t, `
		w(i1, 30). w(i2, 60).
		risk(I,R) :- w(I,W), R = 1 / W.
		risky(I) :- risk(I,R), R > 0.02.
	`, nil)
	if !res.Has("risky", Str("i1")) || res.Has("risky", Str("i2")) {
		t.Fatalf("risky = %v", res.Facts("risky"))
	}
}

func TestDivisionByZero(t *testing.T) {
	p := MustParse(`
		w(i1, 0).
		risk(I,R) :- w(I,W), R = 1 / W.
	`)
	if _, err := Run(p, NewDatabase(), nil); err == nil ||
		!strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want division by zero", err)
	}
}

func TestAssignAsEqualityCheck(t *testing.T) {
	// X = expr where X is already bound acts as an equality filter.
	res := run(t, `
		pair(1,2). pair(2,2).
		double(X,Y) :- pair(X,Y), Y = X * 2.
	`, nil)
	facts := res.Facts("double")
	if len(facts) != 1 || facts[0][0].NumVal() != 1 {
		t.Fatalf("double = %v", facts)
	}
}

func TestExistentialInventsNull(t *testing.T) {
	res := run(t, `
		emp(alice).
		dept(E,D) :- emp(E).
	`, nil)
	facts := res.Facts("dept")
	if len(facts) != 1 {
		t.Fatalf("dept = %v", facts)
	}
	if facts[0][1].Kind() != KNull {
		t.Fatalf("existential position is %v, want a labelled null", facts[0][1])
	}
}

func TestSkolemReuseAcrossDerivations(t *testing.T) {
	// The same frontier must reuse the same invented null even when the
	// rule fires through different derivation paths.
	res := run(t, `
		emp1(alice). emp2(alice).
		e(X) :- emp1(X).
		e(X) :- emp2(X).
		dept(E,D) :- e(E).
	`, nil)
	if got := len(res.Facts("dept")); got != 1 {
		t.Fatalf("dept has %d facts, want 1 (skolem reuse): %v", got, res.Facts("dept"))
	}
}

func TestExistentialDistinctFrontiersDistinctNulls(t *testing.T) {
	res := run(t, `
		emp(alice). emp(bob).
		dept(E,D) :- emp(E).
	`, nil)
	facts := res.Facts("dept")
	if len(facts) != 2 {
		t.Fatalf("dept = %v", facts)
	}
	if Equal(facts[0][1], facts[1][1]) {
		t.Fatal("different frontiers share a labelled null")
	}
}

func TestExistentialJoinsBackRestrictedChase(t *testing.T) {
	// A classic chase pattern: the invented null participates in joins.
	res := run(t, `
		person(alice).
		hasParent(X,Y) :- person(X).
		ancestor(X,Y) :- hasParent(X,Y).
	`, nil)
	if len(res.Facts("ancestor")) != 1 {
		t.Fatalf("ancestor = %v", res.Facts("ancestor"))
	}
}

func TestMSumGroupBy(t *testing.T) {
	res := run(t, `
		val(m1, i1, 10). val(m1, i2, 20). val(m2, i3, 5).
		total(M,S) :- val(M,I,W), S = msum(W,[I]).
	`, nil)
	want := map[string]float64{"m1": 30, "m2": 5}
	facts := res.Facts("total")
	if len(facts) != 2 {
		t.Fatalf("total = %v", facts)
	}
	for _, f := range facts {
		if want[f[0].StrVal()] != f[1].NumVal() {
			t.Errorf("total(%s) = %g, want %g", f[0].StrVal(), f[1].NumVal(), want[f[0].StrVal()])
		}
	}
}

func TestMonotonicContributorDedup(t *testing.T) {
	// The same contributor reached through two facts counts once, with the
	// maximal contribution (monotonic aggregation semantics, Section 4.3).
	res := run(t, `
		val(m1, i1, 10).
		val2(m1, i1, 25).
		src(M,I,W) :- val(M,I,W).
		src(M,I,W) :- val2(M,I,W).
		total(M,S) :- src(M,I,W), S = msum(W,[I]).
		cnt(M,C) :- src(M,I,W), C = mcount([I]).
	`, nil)
	if got := res.Facts("total"); len(got) != 1 || got[0][1].NumVal() != 25 {
		t.Fatalf("total = %v, want 25", got)
	}
	if got := res.Facts("cnt"); len(got) != 1 || got[0][1].NumVal() != 1 {
		t.Fatalf("cnt = %v, want 1", got)
	}
}

func TestMProd(t *testing.T) {
	res := run(t, `
		r(c, e1, 0.9). r(c, e2, 0.5).
		surv(C,P) :- r(C,E,X), P = mprod(X,[E]).
	`, nil)
	got := res.Facts("surv")
	if len(got) != 1 || got[0][1].NumVal() != 0.45 {
		t.Fatalf("surv = %v, want 0.45", got)
	}
}

func TestMUnion(t *testing.T) {
	res := run(t, `
		val(m1, i1, a). val(m1, i2, b). val(m1, i3, a).
		set(M,S) :- val(M,I,V), S = munion(V,[I]).
		haz(M) :- set(M,S), a in S.
	`, nil)
	got := res.Facts("set")
	if len(got) != 1 {
		t.Fatalf("set = %v", got)
	}
	if len(got[0][1].Elems()) != 2 {
		t.Fatalf("set value = %v, want {a,b}", got[0][1])
	}
	if !res.Has("haz", Str("m1")) {
		t.Error("membership over munion result failed")
	}
}

// The company-control example of Section 4.4: X controls Y directly with
// >50% ownership, or through the companies it already controls.
func TestRecursiveAggregateCondition(t *testing.T) {
	res := run(t, `
		own(a, b, 0.6).
		own(a, e, 0.7).
		own(b, c, 0.3).
		own(e, c, 0.3).
		own(c, d, 0.9).
		rel(X,Y) :- own(X,Y,W), W > 0.5.
		rel(X,Y) :- rel(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.
	`, nil)
	// a controls b and e directly; a controls c because b and e, both
	// controlled by a, jointly own 0.6 of c; a controls d through c; b
	// does not control c (only 0.3).
	want := [][2]string{{"a", "b"}, {"a", "e"}, {"a", "c"}, {"a", "d"}, {"c", "d"}}
	for _, w := range want {
		if !res.Has("rel", Str(w[0]), Str(w[1])) {
			t.Errorf("missing rel(%s,%s); facts: %v", w[0], w[1], res.Facts("rel"))
		}
	}
	if res.Has("rel", Str("b"), Str("c")) {
		t.Error("spurious rel(b,c)")
	}
	if got := len(res.Facts("rel")); got != len(want) {
		t.Errorf("rel has %d facts, want %d: %v", got, len(want), res.Facts("rel"))
	}
}

// Recursion through a msum *condition* must consider joint ownership of the
// controlled set: a owns 0.4 of c directly, plus 0.2 through b.
func TestJointControlAccumulates(t *testing.T) {
	res := run(t, `
		own(a, b, 0.6).
		own(a, c, 0.4).
		own(b, c, 0.2).
		rel(X,Y) :- own(X,Y,W), W > 0.5.
		rel(X,Y) :- ctr(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.
		ctr(X,X) :- own(X,Y,W).
		ctr(X,Y) :- rel(X,Y).
	`, nil)
	if !res.Has("rel", Str("a"), Str("c")) {
		t.Fatalf("joint control not derived; rel = %v", res.Facts("rel"))
	}
}

func TestHeadBindingAggregateThroughRecursionRejected(t *testing.T) {
	p := MustParse(`
		t(X,S) :- t(Y,S1), e(Y,X,W), S = msum(W,[Y]).
		e(a,b,1).
	`)
	if _, err := Run(p, NewDatabase(), nil); err == nil ||
		!strings.Contains(err.Error(), "not stratified") {
		t.Fatalf("err = %v, want stratification error", err)
	}
}

func TestEGDUnifiesNulls(t *testing.T) {
	// Two invented department nulls for the same employee are merged by
	// the EGD, collapsing the two dept facts into one.
	res := run(t, `
		emp1(alice). emp2(alice).
		dept1(E,D) :- emp1(E).
		dept2(E,D) :- emp2(E).
		dept(E,D) :- dept1(E,D).
		dept(E,D) :- dept2(E,D).
		D1 = D2 :- dept(E,D1), dept(E,D2).
	`, nil)
	if got := len(res.Facts("dept")); got != 1 {
		t.Fatalf("dept has %d facts after EGD unification, want 1: %v", got, res.Facts("dept"))
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
}

func TestEGDUnifiesNullWithConstant(t *testing.T) {
	res := run(t, `
		emp(alice).
		known(alice, sales).
		dept(E,D) :- emp(E).
		dept(E,D) :- known(E,D).
		D1 = D2 :- dept(E,D1), dept(E,D2).
	`, nil)
	facts := res.Facts("dept")
	if len(facts) != 1 || facts[0][1].StrVal() != "sales" {
		t.Fatalf("dept = %v, want alice->sales only", facts)
	}
}

func TestEGDViolationReported(t *testing.T) {
	// Algorithm 1 Rule 4: one category per attribute; conflicting constants
	// surface as violations rather than failing the run.
	res := run(t, `
		cat(ig, area, quasi).
		cat(ig, area, identifier).
		C1 = C2 :- cat(M,A,C1), cat(M,A,C2).
	`, nil)
	if len(res.Violations) == 0 {
		t.Fatal("no violations reported")
	}
	v := res.Violations[0]
	got := map[string]bool{v.A.StrVal(): true, v.B.StrVal(): true}
	if !got["quasi"] || !got["identifier"] {
		t.Fatalf("violation = %v", v)
	}
	if !strings.Contains(v.String(), "EGD violation") {
		t.Errorf("Violation.String() = %q", v.String())
	}
}

func TestRunawayChaseGuarded(t *testing.T) {
	// Unguarded successor generation runs forever without the fact cap.
	p := MustParse(`
		n(zero).
		n(Y) :- n(X), succ(X,Y).
		succ(X,Y) :- n(X).
	`)
	_, err := Run(p, NewDatabase(), &Options{MaxFacts: 500})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want fact-cap error", err)
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	db.Add("p", Str("a"))
	db.Add("p", Str("a")) // dup
	db.Add("q", Num(1))
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	if got := db.Predicates(); len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Fatalf("Predicates = %v", got)
	}
	if !db.Has("p", Str("a")) || db.Has("p", Str("b")) || db.Has("r", Str("a")) {
		t.Fatal("Has misbehaves")
	}
	if db.Facts("r") != nil {
		t.Fatal("Facts of unknown predicate should be nil")
	}
}

func TestFactsSorted(t *testing.T) {
	db := NewDatabase()
	db.Add("p", Str("b"))
	db.Add("p", Str("a"))
	db.Add("p", Num(3))
	facts := db.Facts("p")
	if facts[0][0].NumVal() != 3 || facts[1][0].StrVal() != "a" || facts[2][0].StrVal() != "b" {
		t.Fatalf("Facts not sorted: %v", facts)
	}
}

// Semi-naive evaluation must agree with a brute-force model check: every
// rule is satisfied by the result, on a chain graph deep enough to need many
// rounds.
func TestDeepRecursionModelCheck(t *testing.T) {
	edb := NewDatabase()
	const n = 60
	for i := 0; i < n; i++ {
		edb.Add("edge", Num(float64(i)), Num(float64(i+1)))
	}
	res := run(t, `
		path(X,Y) :- edge(X,Y).
		path(X,Z) :- path(X,Y), edge(Y,Z).
	`, edb)
	want := n * (n + 1) / 2
	if got := len(res.Facts("path")); got != want {
		t.Fatalf("path has %d facts, want %d", got, want)
	}
	// Model check rule 2: path(X,Y), edge(Y,Z) => path(X,Z).
	for _, p := range res.Facts("path") {
		for _, e := range res.Facts("edge") {
			if Equal(p[1], e[0]) && !res.Has("path", p[0], e[1]) {
				t.Fatalf("model check failed at path%v edge%v", p, e)
			}
		}
	}
}

func TestMultipleHeadAtoms(t *testing.T) {
	res := run(t, `
		inp(a).
		left(X), right(X,Y) :- inp(X).
	`, nil)
	if len(res.Facts("left")) != 1 || len(res.Facts("right")) != 1 {
		t.Fatalf("left=%v right=%v", res.Facts("left"), res.Facts("right"))
	}
	if res.Facts("right")[0][1].Kind() != KNull {
		t.Fatal("existential in second head atom not invented")
	}
}

func TestInComparison(t *testing.T) {
	res := run(t, `
		val(m, i1, x). val(m, i2, y).
		set(M,S) :- val(M,I,V), S = munion(V,[I]).
		hasx(M) :- set(M,S), x in S.
		hasz(M) :- set(M,S), z in S.
	`, nil)
	if !res.Has("hasx", Str("m")) {
		t.Error("x in S failed")
	}
	if res.Has("hasz", Str("m")) {
		t.Error("z in S spuriously true")
	}
}

func TestOrderedComparisonOnListErrors(t *testing.T) {
	p := MustParse(`
		val(m, i1, x).
		set(M,S) :- val(M,I,V), S = munion(V,[I]).
		bad(M) :- set(M,S), S < 3.
	`)
	if _, err := Run(p, NewDatabase(), nil); err == nil ||
		!strings.Contains(err.Error(), "list") {
		t.Fatalf("err = %v, want list comparison error", err)
	}
}

func TestTraceOutput(t *testing.T) {
	p := MustParse(`
		edge(a,b). edge(b,c). edge(c,d).
		path(X,Y) :- edge(X,Y).
		path(X,Z) :- path(X,Y), edge(Y,Z).
	`)
	var trace strings.Builder
	if _, err := Run(p, NewDatabase(), &Options{Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if !strings.Contains(out, "seed") || !strings.Contains(out, "round") {
		t.Fatalf("trace = %q", out)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	res := run(t, `
		v(4, -3).
		r1(X) :- v(A,B), X = abs(B).
		r2(X) :- v(A,B), X = sqrt(A).
		r3(X) :- v(A,B), X = min(A, B, 0 - 7).
		r4(X) :- v(A,B), X = max(A, B).
		r5(X) :- v(A,B), X = pow(A, 2).
		r6(X) :- v(A,B), X = floor(A / 3) + ceil(A / 3).
		r7(X) :- v(A,B), X = concat("n=", A, "!").
		r8(X) :- v(A,B), X = len(concat("abc", "de")).
	`, nil)
	wantNum := map[string]float64{"r1": 3, "r2": 2, "r3": -7, "r4": 4, "r5": 16, "r6": 3, "r8": 5}
	for pred, want := range wantNum {
		facts := res.Facts(pred)
		if len(facts) != 1 || facts[0][0].NumVal() != want {
			t.Errorf("%s = %v, want %g", pred, facts, want)
		}
	}
	if got := res.Facts("r7"); len(got) != 1 || got[0][0].StrVal() != "n=4!" {
		t.Errorf("r7 = %v", got)
	}
}

func TestBuiltinErrors(t *testing.T) {
	if _, err := Parse(`f(X) :- g(A), X = nosuchfn(A).`); err == nil ||
		!strings.Contains(err.Error(), "unknown function") {
		t.Errorf("unknown function: %v", err)
	}
	if _, err := Parse(`f(X) :- g(A), X = abs(A, A).`); err == nil ||
		!strings.Contains(err.Error(), "arguments") {
		t.Errorf("bad arity: %v", err)
	}
	p := MustParse(`
		g(-1).
		f(X) :- g(A), X = sqrt(A).
	`)
	if _, err := Run(p, NewDatabase(), nil); err == nil ||
		!strings.Contains(err.Error(), "sqrt of negative") {
		t.Errorf("sqrt domain: %v", err)
	}
	p2 := MustParse(`
		g(x).
		f(X) :- g(A), X = abs(A).
	`)
	if _, err := Run(p2, NewDatabase(), nil); err == nil {
		t.Error("abs of string accepted")
	}
}

func TestBuiltinInComparisonAndSafety(t *testing.T) {
	res := run(t, `
		w(i1, 30). w(i2, 3).
		big(I) :- w(I,X), abs(X - 10) > 15.
	`, nil)
	if !res.Has("big", Str("i1")) || res.Has("big", Str("i2")) {
		t.Fatalf("big = %v", res.Facts("big"))
	}
	// Unsafe variable inside a call argument is rejected.
	if _, err := Parse(`f(X) :- g(A), X = abs(B).`); err == nil ||
		!strings.Contains(err.Error(), "unsafe") {
		t.Errorf("unsafe call arg: %v", err)
	}
}
