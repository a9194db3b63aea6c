package lint_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"vadasa"
	"vadasa/internal/datalog"
	"vadasa/internal/datalog/lint"
)

// TestArityClashDiagnostic is the regression test for the parser gap: the
// same predicate used with different arities in different rules parses
// without complaint and at runtime the mismatched atom silently never
// unifies. The lint arity pass must produce this exact diagnostic.
func TestArityClashDiagnostic(t *testing.T) {
	src := "own(\"a\",\"b\",0.6).\nrel(X,Y) :- own(X,Y).\n"
	if _, err := datalog.Parse(src); err != nil {
		t.Fatalf("parser must accept the arity clash (that is the bug being linted): %v", err)
	}
	diags := lint.Source("clash.vada", src, &lint.Options{Outputs: []string{"rel"}})
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Code != lint.CodeArity || d.Severity != lint.SeverityError {
		t.Errorf("want %s error, got %s %s", lint.CodeArity, d.Severity, d.Code)
	}
	if d.Pos.Line != 2 || d.Pos.Col != 13 {
		t.Errorf("want position 2:13 (the own atom), got %d:%d", d.Pos.Line, d.Pos.Col)
	}
	if want := "predicate own used with 2 arguments, but with 3 at line 1"; d.Message != want {
		t.Errorf("message mismatch:\n got: %s\nwant: %s", d.Message, want)
	}
	if len(d.Related) != 1 || d.Related[0].Pos.Line != 1 {
		t.Errorf("want one related position at line 1, got %+v", d.Related)
	}
}

func TestValidateCatchesArityClash(t *testing.T) {
	p, err := datalog.Parse("own(\"a\",\"b\",0.6).\nrel(X,Y) :- own(X,Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	err = vadasa.ValidateProgram(p)
	var lerr *lint.Error
	if !errors.As(err, &lerr) || !strings.Contains(err.Error(), "predicate own used with 2 arguments") {
		t.Errorf("vadasa.ValidateProgram must reject the arity clash with a *lint.Error, got: %v", err)
	}
}

func mustParse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPreflight(t *testing.T) {
	good := mustParse(t, "p(X) :- q(X).\nq(\"a\").\n")
	if err := lint.Preflight(good); err != nil {
		t.Errorf("clean program must pass preflight, got %v", err)
	}
	bad := mustParse(t, "p(X) :- q(X), not p(X).\nq(\"a\").\n")
	err := lint.Preflight(bad)
	lerr, ok := err.(*lint.Error)
	if !ok {
		t.Fatalf("want *lint.Error, got %T (%v)", err, err)
	}
	found := false
	for _, d := range lerr.Diagnostics {
		if d.Code == lint.CodeNotStratified {
			found = true
		}
	}
	if !found {
		t.Errorf("want a %s diagnostic, got %v", lint.CodeNotStratified, lerr.Diagnostics)
	}
}

func TestParseErrorBecomesVL000(t *testing.T) {
	diags := lint.Source("broken.vada", "p(X :- q(X).\n", nil)
	if len(diags) != 1 || diags[0].Code != lint.CodeSyntax || diags[0].Severity != lint.SeverityError {
		t.Fatalf("want a single VL000 error, got %v", diags)
	}
	if diags[0].Pos.Line != 1 {
		t.Errorf("want line 1, got %d", diags[0].Pos.Line)
	}
}

// TestWardViolationDetail pins the refactored wardedness analysis: the
// violation carries the dangerous variable and the affected positions a
// ward would have to cover.
func TestWardViolationDetail(t *testing.T) {
	p := mustParse(t, `
		p(X,Z) :- q(X).
		t(Y) :- p(A,Y), p(B,Y), s(A), s(B).
	`)
	vs := datalog.WardViolations(p)
	if len(vs) != 1 {
		t.Fatalf("want one violation, got %d: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.RuleIndex != 1 {
		t.Errorf("want rule 1, got %d", v.RuleIndex)
	}
	if len(v.Dangerous) != 1 || v.Dangerous[0] != "Y" {
		t.Errorf("want dangerous [Y], got %v", v.Dangerous)
	}
	if got := v.Positions["Y"]; len(got) != 2 || got[0] != "p[2]" || got[1] != "p[2]" {
		t.Errorf("want Y at [p[2] p[2]], got %v", got)
	}
	if err := datalog.CheckWarded(p); err == nil ||
		!strings.Contains(err.Error(), "rule 1 (line 3) is not warded: dangerous variables [Y]") {
		t.Errorf("CheckWarded wrapper must keep its message shape, got: %v", err)
	}
}

// TestSuppressionDirectives exercises allow / allow-file / input / output.
func TestSuppressionDirectives(t *testing.T) {
	src := `% vadalint:allow-file VL003
% vadalint:input q
% vadalint:output p
p(X) :- q(X,Y).
`
	if diags := lint.Source("ann.vada", src, nil); len(diags) != 0 {
		t.Errorf("allow-file must suppress the singleton, got %v", diags)
	}
	// Without the directive the singleton fires.
	src2 := "% vadalint:input q\n% vadalint:output p\np(X) :- q(X,Y).\n"
	diags := lint.Source("ann.vada", src2, nil)
	if len(diags) != 1 || diags[0].Code != lint.CodeSingleton {
		t.Errorf("want one VL003, got %v", diags)
	}
}

func TestDiagnosticJSONShape(t *testing.T) {
	diags := lint.Source("clash.vada", "own(\"a\").\nrel(X) :- own(X,X).\n",
		&lint.Options{Outputs: []string{"rel"}})
	if len(diags) == 0 {
		t.Fatal("expected diagnostics")
	}
	raw, err := json.Marshal(diags[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["severity"] != "error" {
		t.Errorf("severity must marshal as a string, got %v", m["severity"])
	}
	if m["code"] != lint.CodeArity {
		t.Errorf("want code %s, got %v", lint.CodeArity, m["code"])
	}
}

// TestPassRegistryDocumented keeps the registry table honest: every pass
// has a unique VLxxx code, a name, and documentation.
func TestPassRegistryDocumented(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range lint.Passes() {
		if !strings.HasPrefix(p.Code, "VL") || len(p.Code) != 5 {
			t.Errorf("pass %q has malformed code %q", p.Name, p.Code)
		}
		if seen[p.Code] {
			t.Errorf("duplicate code %s", p.Code)
		}
		seen[p.Code] = true
		if p.Name == "" || p.Doc == "" {
			t.Errorf("pass %s lacks name or doc", p.Code)
		}
	}
}
