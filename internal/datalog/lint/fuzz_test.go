package lint_test

import (
	"context"
	"strings"
	"testing"

	"vadasa/internal/datalog"
	"vadasa/internal/datalog/lint"
)

// FuzzLintNoPanic asserts the analyzer's core robustness contract: the
// linter never panics on any input — parser-accepted programs are analyzed,
// parser-rejected ones become a VL000 diagnostic, and neither path is
// allowed to crash. On every program the parser accepts, the lint and the
// engine agree on stratification: VL009 is reported iff the engine refuses
// the program as not stratified.
func FuzzLintNoPanic(f *testing.F) {
	seeds := []string{
		"",
		"p(X) :- q(X).",
		"own(\"a\",\"b\",0.6).\nrel(X,Y) :- rel(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.",
		"p(X,Z) :- q(X).\nt(Y) :- p(A,Y), p(B,Y).",
		"win(X) :- move(X,Y), not win(Y).",
		"total(M,S) :- val(M,I,W), S = msum(W,[I]).",
		"C1 = C2 :- cat(M,A,C1), cat(M,A,C2).\ncat(\"db\",\"age\",\"qi\").",
		"comb(Z,I,N) :- comb(Z1,I,N1), qiord(A,N), N > N1.",
		"p(X) :- q(X), r(X).\np(A) :- r(A), q(A).\np(Y) :- q(Y).",
		"% vadalint:allow VL003 reason\np(X) :- q(X,Y).",
		"% vadalint:input q\n% vadalint:output p\np(X) :- q(X).",
		"a(1).\na(1,2).\na(1,2,3).",
		"p(X) :- X = 1 / 0, q(X).",
		"s(X) :- p(X), not q(X).\np(\"a\").\nq(\"a\").",
		"a(X), b(X) :- c(X).\nc(X) :- a(X), not b(X).",
		"a(X), b(X) :- c(X).\nd(X) :- c(X), not b(X).",
		"t(G,S), u(G) :- m(G,I,W), S = msum(W,[I]).\nm(G,I,W) :- u(G), v(I,W).",
		"X = Y :- p(X,Y), not q(X).\nq(X) :- p(X,_Y).",
		"X = Y :- p(X), p(Y).\np(X) :- p(X), not r(X).\nr(X) :- p(X).",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Source must absorb both parse errors and parser-accepted
		// programs without panicking.
		_ = lint.Source("fuzz.vada", src, nil)
		p, err := datalog.Parse(src)
		if err != nil {
			return
		}
		diags := lint.Check(p, &lint.Options{File: "fuzz.vada"})
		_ = lint.Preflight(p)
		vl009 := false
		for _, d := range diags {
			vl009 = vl009 || d.Code == lint.CodeNotStratified
		}
		// The engine stratifies before it evaluates anything; a cancelled
		// context stops the run right after.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = datalog.RunContext(ctx, p, datalog.NewDatabase(), nil)
		refused := err != nil && strings.Contains(err.Error(), "not stratified")
		if vl009 != refused {
			t.Fatalf("lint reports VL009: %v, engine refuses as not stratified: %v (%v)\n%s", vl009, refused, err, src)
		}
	})
}
