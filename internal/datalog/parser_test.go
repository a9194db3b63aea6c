package datalog

import (
	"strings"
	"testing"
)

func TestParseFactsAndRules(t *testing.T) {
	p, err := Parse(`
		% ownership edges
		own("a","b",0.6).
		own("b","c",-0.25).
		rel(X,Y) :- own(X,Y,W), W > 0.5.
		rel(X,Y) :- rel(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.
	`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("got %d rules", len(p.Rules))
	}
	if p.Rules[1].Heads[0].Args[2].Val.NumVal() != -0.25 {
		t.Errorf("negative number constant mis-parsed: %v", p.Rules[1])
	}
	if p.Rules[3].Body[2].Kind != LAggCond {
		t.Errorf("aggregate condition mis-parsed: %v", p.Rules[3].Body[2])
	}
}

func TestParseAssignmentsAndAggAssign(t *testing.T) {
	p, err := Parse(`
		risk(I,R) :- grp(I,S), R = 1 / S.
		total(M,S) :- val(M,I,W), S = msum(W,[I]).
		cnt(M,C) :- val(M,I,W), C = mcount([I]).
		prod(M,P) :- val(M,I,W), P = mprod(1 - W, [I]).
		set(M,S) :- val(M,I,W), S = munion(I,[I]).
	`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	kinds := []LitKind{LAssign, LAggAssign, LAggAssign, LAggAssign, LAggAssign}
	for i, k := range kinds {
		if got := p.Rules[i].Body[1].Kind; got != k {
			t.Errorf("rule %d literal kind = %d, want %d", i, got, k)
		}
	}
	if p.Rules[2].Body[1].Agg.Fn != AggCount || p.Rules[2].Body[1].Agg.Arg != nil {
		t.Error("mcount parsed with an argument")
	}
}

func TestParseExistentialDetection(t *testing.T) {
	p, err := Parse(`comb(Z,I), inc(A,Z) :- tuplei(M,I,V), qi(M,A).`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	r := p.Rules[0]
	if len(r.Heads) != 2 {
		t.Fatalf("heads = %d", len(r.Heads))
	}
	if len(r.Existential) != 1 || r.Existential[0] != "Z" {
		t.Fatalf("Existential = %v, want [Z]", r.Existential)
	}
}

func TestParseEGD(t *testing.T) {
	p, err := Parse(`C1 = C2 :- cat(M,A,C1), cat(M,A,C2).`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !p.Rules[0].IsEGD {
		t.Fatal("EGD not recognized")
	}
}

func TestParseNegationAndComparisons(t *testing.T) {
	p, err := Parse(`
		s(X) :- p(X), not q(X).
		t(X) :- p(X), X != "a", X >= "b", X in L, lst(L).
	`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Rules[0].Body[1].Kind != LNegAtom {
		t.Error("negation mis-parsed")
	}
	ops := []string{OpNe, OpGe, OpIn}
	for i, op := range ops {
		if got := p.Rules[1].Body[1+i]; got.Kind != LCmp || got.Op != op {
			t.Errorf("literal %d: %v, want op %s", i, got, op)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	p, err := Parse(`f("a\"b\\c\nd\te").`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := p.Rules[0].Heads[0].Args[0].Val.StrVal()
	if got != "a\"b\\c\nd\te" {
		t.Errorf("escapes = %q", got)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	p, err := Parse(`f(X) :- g(A,B,C), X = A + B * C - (A / B).`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := "((A+(B*C))-(A/B))"
	if got := p.Rules[0].Body[1].AssignE.String(); got != want {
		t.Errorf("expr = %s, want %s", got, want)
	}
}

func TestParseNumberThenPeriod(t *testing.T) {
	// "f(1)." must not swallow the terminator into the number, and
	// decimals must still work.
	p, err := Parse("f(1).\ng(2.5).\nh(X) :- f(X), X < 1.5.")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Rules[1].Heads[0].Args[0].Val.NumVal() != 2.5 {
		t.Error("decimal constant mangled")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`f(X).`, "contains variable"},
		{`f(X) :- g(Y).`, ""}, // existential head: fine, not an error
		{`f(X) :- not g(X).`, "unsafe"},
		{`f(X) :- g(X), Y > 1.`, "unsafe"},
		{`f(X) :- g(X), Z = Y + 1.`, "unsafe"},
		{`f() .`, "no arguments"},
		{`f(X) :- g(X), h(X)`, "expected"},
		{`X = Y.`, "EGD without a body"},
		{`f(X) :- g(X), 1 + 1 = X.`, "left side"},
		{`f("unterminated`, "unterminated"},
		{`f(X) :- g(X,W), S = msum(W,[X]), C = mcount([X]).`, "at most one aggregate"},
		{`f(X) :- g(X), msum(1,[X]) ~ 2.`, "unexpected character"},
		{`f(X) :- g(X), "a" < "b" < "c".`, "expected"},
		{`f("bad\qescape").`, "bad string literal"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if c.wantSub == "" {
			if err != nil {
				t.Errorf("Parse(%q) unexpected error: %v", c.src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseRejectsBadInputWithoutPanicking(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Parse panicked on bad input: %v", r)
		}
	}()
	if _, err := Parse(`f(X).`); err == nil {
		t.Fatal("Parse accepted an unsafe fact")
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	src := `rel(X,Y) :- rel(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(p.Rules[0].String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", p.Rules[0].String(), err)
	}
	if p2.Rules[0].String() != p.Rules[0].String() {
		t.Errorf("round trip unstable: %q vs %q", p.Rules[0].String(), p2.Rules[0].String())
	}
}

func TestProgramString(t *testing.T) {
	p := MustParse("f(a).\ng(X) :- f(X).")
	s := p.String()
	if !strings.Contains(s, `f("a").`) || !strings.Contains(s, "g(X) :- f(X).") {
		t.Errorf("Program.String() = %q", s)
	}
}

func TestLowercaseIdentifiersAreStringConstants(t *testing.T) {
	p := MustParse(`cat(ig, area, quasi).`)
	args := p.Rules[0].Heads[0].Args
	if args[0].Val.StrVal() != "ig" || args[2].Val.StrVal() != "quasi" {
		t.Errorf("identifier constants mangled: %v", args)
	}
}

// TestUnsafeVariableNamedInSourceOrder: an expression with several unsafe
// variables is refused with the same text every time, naming the first of
// them as written. The text reaches /lint, /reason's 422 and ParseProgram.
func TestUnsafeVariableNamedInSourceOrder(t *testing.T) {
	cases := []struct{ src, want string }{
		{`p(X) :- q(X), A + B + C + D < E.`, "datalog: line 1: unsafe variable A in comparison"},
		{`p(X) :- q(X), X < max(D, C) * -B.`, "datalog: line 1: unsafe variable D in comparison"},
		{`p(S) :- q(X), S = msum(W + V, [Y]).`, "datalog: line 1: unsafe variable W in aggregate"},
	}
	for _, c := range cases {
		for i := 0; i < 100; i++ {
			if _, err := Parse(c.src); err == nil || err.Error() != c.want {
				t.Fatalf("Parse(%q), attempt %d: err = %v, want %q", c.src, i, err, c.want)
			}
		}
	}
}
