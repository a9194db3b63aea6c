package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestExplainDerivationTree(t *testing.T) {
	res := run(t, `
		edge(a,b). edge(b,c).
		path(X,Y) :- edge(X,Y).
		path(X,Z) :- path(X,Y), edge(Y,Z).
	`, nil)
	ex, err := res.Explain("path", Str("a"), Str("c"))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	for _, want := range []string{
		`path("a","c")`,
		"path(X,Z) :- path(X,Y), edge(Y,Z).",
		`edge("b","c")`,
		"[extensional]",
	} {
		if !strings.Contains(ex, want) {
			t.Errorf("explanation missing %q:\n%s", want, ex)
		}
	}
}

func TestExplainExtensionalFact(t *testing.T) {
	edb := NewDatabase()
	edb.Add("edge", Str("a"), Str("b"))
	res := run(t, `path(X,Y) :- edge(X,Y).`, edb)
	ex, err := res.Explain("edge", Str("a"), Str("b"))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(ex, "[extensional]") {
		t.Errorf("explanation = %q", ex)
	}
}

func TestExplainMissingFact(t *testing.T) {
	res := run(t, `p(a).`, nil)
	if _, err := res.Explain("p", Str("zzz")); err == nil {
		t.Fatal("Explain of absent fact did not error")
	}
}

func TestExplainCyclicDerivationTerminates(t *testing.T) {
	res := run(t, `
		e(a,b). e(b,a).
		p(X,Y) :- e(X,Y).
		p(X,Z) :- p(X,Y), p(Y,Z).
	`, nil)
	ex, err := res.Explain("p", Str("a"), Str("a"))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(ex) > 100_000 {
		t.Fatalf("explanation suspiciously large (%d bytes)", len(ex))
	}
}

func TestProvenanceRule(t *testing.T) {
	res := run(t, `
		edge(a,b).
		path(X,Y) :- edge(X,Y).
	`, nil)
	ri, ok := res.ProvenanceRule("path", Str("a"), Str("b"))
	if !ok || ri != 1 {
		t.Fatalf("ProvenanceRule(path) = %d, %v; want 1, true", ri, ok)
	}
	ri, ok = res.ProvenanceRule("edge", Str("a"), Str("b"))
	if !ok || ri != -1 {
		t.Fatalf("ProvenanceRule(edge) = %d, %v; want -1, true", ri, ok)
	}
	if _, ok := res.ProvenanceRule("path", Str("x"), Str("y")); ok {
		t.Fatal("ProvenanceRule of absent fact reported ok")
	}
}

func TestQueryPatterns(t *testing.T) {
	res := run(t, `
		edge(a,b). edge(b,c). edge(a,c). loop(a,a).
		path(X,Y) :- edge(X,Y).
	`, nil)
	// Bound first argument.
	got := res.Query("path", C(Str("a")), V("Y"))
	if len(got) != 2 {
		t.Fatalf("path(a, Y) = %v", got)
	}
	if v, ok := got[0].Get("Y"); !ok || v.StrVal() != "b" {
		t.Fatalf("first binding = %v", got[0])
	}
	// All-variable pattern.
	if got := res.Query("path", V("X"), V("Y")); len(got) != 3 {
		t.Fatalf("path(X,Y) has %d bindings", len(got))
	}
	// Repeated variable: only the self-loop matches.
	if got := res.Query("loop", V("X"), V("X")); len(got) != 1 {
		t.Fatalf("loop(X,X) = %v", got)
	}
	// Ground query.
	if got := res.Query("path", C(Str("a")), C(Str("b"))); len(got) != 1 || len(got[0].Vars) != 0 {
		t.Fatalf("ground query = %v", got)
	}
	// No match, unknown variable lookup.
	if got := res.Query("path", C(Str("zz")), V("Y")); len(got) != 0 {
		t.Fatalf("unexpected bindings %v", got)
	}
	if _, ok := (Binding{}).Get("nope"); ok {
		t.Fatal("empty binding resolved a variable")
	}
}

// queryReference is Query as the reference chase reads a pattern: its
// match over the decoded, sorted facts.
func queryReference(r *Result, pred string, pattern ...Term) []Binding {
	var varOrder []string
	seen := map[string]bool{}
	for _, t := range pattern {
		if t.Kind == TVar && !seen[t.Name] {
			seen[t.Name] = true
			varOrder = append(varOrder, t.Name)
		}
	}
	var out []Binding
	atom := &Atom{Pred: pred, Args: pattern}
	env := refEnv{}
	for _, f := range r.db.Facts(pred) {
		bound, ok := refMatch(atom, refFactOf(f), env)
		if !ok {
			continue
		}
		b := Binding{Vars: varOrder, Vals: make([]Val, len(varOrder))}
		for i, name := range varOrder {
			b.Vals[i] = env[name].v
		}
		out = append(out, b)
		for _, v := range bound {
			delete(env, v)
		}
	}
	return out
}

// TestQueryMatchesReference drives Query and its reference over random
// patterns — repeated variables, constants no fact contains, a predicate of
// mixed arities, one with no facts — and wants the same bindings in the same
// order.
func TestQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	edb := NewDatabase()
	vals := []Val{Num(0), Num(1), Num(2.5), Str("a"), Str("b"), NullVal(3), List(Num(1), Str("a"))}
	for i := 0; i < 120; i++ {
		f := make([]Val, 1+rng.Intn(3))
		for j := range f {
			f[j] = vals[rng.Intn(len(vals))]
		}
		edb.Add("r", f...)
	}
	res, err := Run(MustParse(`s(X,Y) :- r(X,Y).`), edb, nil)
	if err != nil {
		t.Fatal(err)
	}
	terms := []Term{V("X"), V("Y"), V("X"), C(Str("never")), C(Num(-7)), C(List(Num(9)))}
	for _, v := range vals {
		terms = append(terms, C(v))
	}
	for i := 0; i < 2000; i++ {
		pattern := make([]Term, rng.Intn(4))
		for j := range pattern {
			pattern[j] = terms[rng.Intn(len(terms))]
		}
		pred := []string{"r", "s", "none"}[rng.Intn(3)]
		got, want := res.Query(pred, pattern...), queryReference(res, pred, pattern...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%s, %s):\n got %v\nwant %v", pred, fmt.Sprint(pattern), got, want)
		}
	}
}
