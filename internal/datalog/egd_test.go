package datalog

import (
	"context"
	"errors"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// pairEDB holds p(i,i) for i < n: every EGD below is satisfied on it, so a
// run can only end by finishing or by running out of budget or time.
func pairEDB(n int) *Database {
	edb := NewDatabase()
	for i := 0; i < n; i++ {
		edb.Add("p", Num(float64(i)), Num(float64(i)))
	}
	return edb
}

// TestEGDJoinIsMetered: an EGD body is a join like any other, so it spends
// the work budget and reports what it spent. Before EGDs ran on the compiled
// walk both runs returned nil with MatchAttempts == 0.
func TestEGDJoinIsMetered(t *testing.T) {
	p := MustParse(`X = Y :- p(A,X), p(A,Y).`)
	const n = 4000
	_, err := Run(p, pairEDB(n), &Options{MaxWork: 1000})
	if err == nil || !strings.Contains(err.Error(), "exceeded the work budget of 1000 match attempts") {
		t.Fatalf("err = %v, want the work-budget error", err)
	}
	res, err := Run(p, pairEDB(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The second atom is probed through a join index on A: one candidate
	// per row, not one scan per row.
	if got := res.Stats.MatchAttempts; got < n || got > 4*n {
		t.Fatalf("MatchAttempts = %d over %d facts, want the order of the fact count", got, n)
	}
}

// TestEGDJoinHonoursDeadline: the walk polls the context inside an EGD join.
// The issue's `p(A,X), p(A,Y)` is indexed now and finishes 8 000 facts long
// before any deadline, so the cross product is spelled so that no index
// applies: 64 M candidates, which the old walk ground through uncancellably.
func TestEGDJoinHonoursDeadline(t *testing.T) {
	p := MustParse(`X = Y :- p(A,X), p(B,Y), A == B.`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, p, pairEDB(8000), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancellation took %s; the EGD join is not polling the context", elapsed)
	}
}

// TestEGDPreBoundAssignmentFilters: `X = e` with X already bound compares, in
// an EGD body as in every other. The old EGD walk overwrote X, continued and
// unbound it, which let p(5,"c") through and reported a spurious "c" = "b".
func TestEGDPreBoundAssignmentFilters(t *testing.T) {
	edb := NewDatabase()
	edb.Add("p", Num(1), Str("a"))
	edb.Add("p", Num(5), Str("c"))
	edb.Add("q", Num(0), Str("b"))
	var got [2]string
	for i, op := range []string{"=", "=="} {
		p := MustParse(`A = B :- p(X,A), q(N,B), X ` + op + ` N + 1.`)
		EquivCheck(t, "egd-prebound"+op, p, edb, nil)
		res, err := Run(p, BulkCopy(edb), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Violations {
			got[i] += v.A.String() + " = " + v.B.String() + "; "
		}
	}
	if want := `"a" = "b"; `; got[0] != want || got[1] != want {
		t.Fatalf("violations under '=': %q, under '==': %q, want %q for both", got[0], got[1], want)
	}
	tgd := MustParse(`out(A,B) :- p(X,A), q(N,B), X = N + 1.`)
	EquivCheck(t, "tgd-prebound", tgd, edb, nil)
	res, err := Run(tgd, edb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs := res.Facts("out"); len(fs) != 1 || fs[0].String() != `("a","b")` {
		t.Fatalf("the same body under a TGD derives %v, want only (\"a\",\"b\")", fs)
	}
}

// TestEGDBodyErrorsCarryTheLine: a failing comparison inside an EGD body is
// reported like one inside a TGD body, with the rule's line.
func TestEGDBodyErrorsCarryTheLine(t *testing.T) {
	edb := NewDatabase()
	edb.Add("item", List(Num(1)))
	_, err := Run(MustParse("\nX = Y :- item(X), item(Y), X > 3."), edb, nil)
	if err == nil || err.Error() != `line 2: ordered comparison ">" on list value` {
		t.Fatalf("err = %v", err)
	}
	_, err = Run(MustParse(`X = Y :- item(X), item(Y), S = msum(1,[X]).`), edb, nil)
	if err == nil || err.Error() != "datalog: aggregates are not allowed in EGD bodies" {
		t.Fatalf("err = %v", err)
	}
}

// TestDerivedFactsCountsWhatIsNotInput: an EGD that merges input facts
// shrinks the input part of the result, not the derived count. Here the
// three p facts unify into one, and q(⊥3) is the one fact derived. The count
// used to be the result's size minus the input's, -1 here.
func TestDerivedFactsCountsWhatIsNotInput(t *testing.T) {
	edb := NewDatabase()
	for id := uint64(1); id <= 3; id++ {
		edb.Add("p", NullVal(id), Str("a"))
	}
	p := MustParse(`
		q(X) :- p(X,A).
		X = Y :- p(X,A), p(Y,A).`)
	for _, workers := range EquivWorkers {
		res, err := Run(p, BulkCopy(edb), &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.DB().Len(); n != 2 || len(res.Facts("q")) != 1 {
			t.Fatalf("workers %d: %d facts, q = %v; want p and q unified to one fact each", workers, n, res.Facts("q"))
		}
		if got := res.Stats.DerivedFacts; got != 1 {
			t.Fatalf("workers %d: DerivedFacts = %d, want 1", workers, got)
		}
	}
}

// TestOneBodyEvaluator reads the package's non-test sources and pins the
// shape the engine was reduced to: rule bodies are evaluated by the compiled
// walk alone.
func TestOneBodyEvaluator(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := gotoken.NewFileSet()
	var exprEvaluators []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := goparser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.MapType:
				// The Skolem table is the one map from strings to values
				// left; another would be a map environment coming back.
				pos := fset.Position(x.Pos())
				if types.ExprString(x) == "map[string]Val" && !strings.Contains(lines[pos.Line-1], "skolem") {
					t.Errorf("%s: a map[string]Val — rule bodies run on slot environments", pos)
				}
			case *ast.FuncDecl:
				if hasType(x.Type.Params, "Expr") && hasType(x.Type.Results, "Val") {
					exprEvaluators = append(exprEvaluators, x.Name.Name)
				}
				if x.Name.Name != "runEGDs" {
					break
				}
				ast.Inspect(x, func(n ast.Node) bool {
					if _, ok := n.(*ast.SwitchStmt); ok {
						t.Errorf("%s: runEGDs switches; literal kinds belong to walk", fset.Position(n.Pos()))
					}
					return true
				})
			}
			return true
		})
	}
	if len(exprEvaluators) != 1 {
		t.Errorf("functions from an Expr to a Val: %v, want exactly one", exprEvaluators)
	}
}

func hasType(fields *ast.FieldList, typ string) bool {
	if fields == nil {
		return false
	}
	for _, f := range fields.List {
		if types.ExprString(f.Type) == typ {
			return true
		}
	}
	return false
}
