package datalog

// Tests of the group-by operator (aggTable, recordAgg, flushAgg): every case
// is held to the reference chase through EquivCheck — its model, valid
// provenance and its recorded digest — and additionally pins the order in
// which facts were inserted, which is what the operator's flush order
// decides.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func aggCheck(t *testing.T, name, src string, edb *Database) {
	t.Helper()
	p := MustParse(src)
	EquivCheck(t, name, p, edb, nil)
	InsertionOrderCheck(t, name, p, edb, nil)
}

func TestAggOperatorHandwritten(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		src  string
		edb  func(db *Database)
	}{
		// One contributor seen with a smaller, a larger and again a smaller
		// argument inside one pass: the largest is the one summed.
		{"monotone-best-one-pass", `
			total(G,S) :- m(G,I,W), S = msum(W,[I]).
			prod(G,P) :- m(G,I,W), P = mprod(W,[I]).`,
			func(db *Database) {
				for _, r := range [][3]float64{{1, 1, 5}, {1, 1, 7}, {1, 1, 3}, {1, 2, 2}, {2, 1, 4}, {2, 1, 4}, {2, 3, 0.5}} {
					db.Add("m", Num(r[0]), Num(r[1]), Num(r[2]))
				}
			}},
		// Recursion through an aggregate condition (only that shape may sit
		// in a cycle): later delta rounds bring an existing contributor back
		// with a smaller argument — no group changes, nothing is folded —
		// and with a larger one, which lifts the sum over the next level and
		// unlocks the next step.
		{"monotone-best-across-rounds", `
			m(G,I,W) :- base(G,I,W).
			m(G,I,W) :- step(G,I,W,K), reached(G,K).
			reached(G,K) :- m(G,I,W), lvl(K), msum(W,[I]) >= K.
			total(G,S) :- m(G,I,W), S = msum(W,[I]).
			seen(G,N) :- m(G,I,_W), N = mcount([I]).`,
			func(db *Database) {
				db.Add("base", Str("g"), Str("a"), Num(3))
				db.Add("base", Str("g"), Str("b"), Num(4))
				db.Add("base", Str("h"), Str("a"), Num(1))
				for _, k := range []float64{5, 7, 10, 12, 17, 50} {
					db.Add("lvl", Num(k))
				}
				db.Add("step", Str("g"), Str("a"), Num(1), Num(7))  // smaller: no change
				db.Add("step", Str("g"), Str("a"), Num(6), Num(7))  // larger: the sum reaches 10
				db.Add("step", Str("g"), Str("c"), Num(2), Num(10)) // new contributor: 12
				db.Add("step", Str("g"), Str("b"), Num(9), Num(12)) // larger: 17
				db.Add("step", Str("h"), Str("a"), Num(5), Num(50)) // never unlocked
			}},
		{"computed-contributor", `
			bynum(G,S) :- m(G,I,W), S = msum(W,[I + 0]).
			bystr(G,N) :- s(G,A,B), N = mcount([concat(A, B)]).
			bystrsum(G,S) :- s(G,A,B), w(A,W), S = msum(W * 2,[concat(B, A)]).`,
			func(db *Database) {
				for i := 0; i < 40; i++ {
					db.Add("m", Num(float64(i%3)), Num(float64(i%7)), Num(float64(i)))
				}
				for _, r := range [][3]string{{"g", "ab", "c"}, {"g", "a", "bc"}, {"g", "x", "y"}, {"h", "a", "bc"}} {
					db.Add("s", Str(r[0]), Str(r[1]), Str(r[2]))
				}
				db.Add("w", Str("ab"), Num(1.5))
				db.Add("w", Str("a"), Num(0.25))
				db.Add("w", Str("x"), Num(3))
			}},
		// Compare decides which contribution is kept: a NaN is neither above
		// nor below anything, so it never replaces and is never replaced, and
		// -0 does not replace 0. Computed arguments reach the same rule.
		{"nan-and-negative-zero", `
			total(G,S) :- m(G,I,W), S = msum(W,[I]).
			scaled(G,S) :- m(G,I,W), S = msum(W * -1,[I]).
			wild(G,S) :- m(G,I,W), W < 0, S = msum(pow(W, 0.5),[I]).`,
			func(db *Database) {
				db.Add("m", Str("g"), Num(1), Num(math.NaN()))
				db.Add("m", Str("g"), Num(1), Num(5))
				db.Add("m", Str("g"), Num(2), Num(5))
				db.Add("m", Str("h"), Num(1), Num(5))
				db.Add("m", Str("h"), Num(1), Num(math.NaN()))
				db.Add("m", Str("z"), Num(1), Num(negZero))
				db.Add("m", Str("z"), Num(1), Num(0))
				db.Add("m", Str("z"), Num(2), Num(0))
				db.Add("m", Str("n"), Num(1), Num(-4))
				db.Add("m", Str("n"), Num(2), Num(-9))
			}},
		{"munion", `
			members(G,L) :- m(G,I,X), L = munion(X,[I]).
			nested(L) :- members(_G,M), L = munion(M,[M]).
			has(G) :- m(G,_I,_X), members(G,L), "b" in L.`,
			func(db *Database) {
				for _, r := range [][3]string{{"g", "1", "b"}, {"g", "1", "a"}, {"g", "1", "b"}, {"g", "2", "c"}, {"h", "1", "a"}} {
					db.Add("m", Str(r[0]), Str(r[1]), Str(r[2]))
				}
			}},
		// The right-hand side of an aggregate condition reads a group slot.
		{"aggcond-reads-group-slot", `
			over(G,T) :- m(G,I,W), lim(G,T), msum(W,[I]) > T.
			many(G,T) :- m(G,I,_W), lim(G,T), mcount([I]) >= T - 8.`,
			func(db *Database) {
				for i := 0; i < 30; i++ {
					db.Add("m", Num(float64(i%4)), Num(float64(i)), Num(float64(i%5)))
				}
				for g := 0; g < 4; g++ {
					db.Add("lim", Num(float64(g)), Num(float64(10+3*g)))
				}
			}},
		// No group variable at all: one group with the empty key.
		{"single-empty-key", `
			grand(S) :- m(_G,I,W), S = msum(W,[I]).`,
			func(db *Database) {
				for i := 0; i < 20; i++ {
					db.Add("m", Num(float64(i%3)), Num(float64(i)), Num(float64(i)/7))
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edb := NewDatabase()
			tc.edb(edb)
			aggCheck(t, tc.name, tc.src, edb)
		})
	}
}

// TestAggOperatorGenerated crosses every aggregate function with a
// single-atom and a joined body, as an assignment and as a condition, over
// random tables in which contributors repeat with varying arguments.
func TestAggOperatorGenerated(t *testing.T) {
	bodies := [][2]string{
		{"joined", "k(G,F), m(G,I,V), W = V * F"},
		{"single", "m(G,I,W)"},
	}
	aggs := [][2]string{
		{"mcount", "mcount([I])"},
		{"mprod", "mprod(W,[I])"},
		{"msum", "msum(W,[I])"},
		{"munion", "munion(W,[I])"},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		edb := NewDatabase()
		groups := 3 + rng.Intn(40)
		for i := 0; i < 600; i++ {
			g, c := rng.Intn(groups), rng.Intn(25)
			// Quarter-steps around 1 keep products finite and make equal
			// arguments common.
			edb.Add("m", Num(float64(g)), Str(fmt.Sprintf("c%d", c)), Num(0.5+float64(rng.Intn(8))/4))
		}
		for g := 0; g < groups; g += 1 + rng.Intn(2) {
			edb.Add("k", Num(float64(g)), Num(float64(1+rng.Intn(3))))
		}
		var src strings.Builder
		for _, b := range bodies {
			bn, body := b[0], b[1]
			for _, a := range aggs {
				an, agg := a[0], a[1]
				fmt.Fprintf(&src, "a_%s_%s(G,R) :- %s, R = %s.\n", bn, an, body, agg)
				if an != "munion" {
					fmt.Fprintf(&src, "c_%s_%s(G) :- %s, %s > 4.\n", bn, an, body, agg)
				}
			}
		}
		aggCheck(t, fmt.Sprintf("seed%d", seed), src.String(), edb)
	}
}

// TestAggOperatorTableGrowth crosses the sizes at which the flat tables
// rehash many times: more than 2^16 groups, and one group of 50 000
// contributors folded in key order. Facts and their order are compared;
// explaining 140 000 facts one by one is left to the smaller cases.
func TestAggOperatorTableGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	growthProgram := MustParse(`
		total(G,S) :- m(G,I,W), S = msum(W,[I]).
		size(G,N) :- m(G,I,_W), N = mcount([I]).`)
	t.Run("many-groups", func(t *testing.T) {
		edb := NewDatabase()
		for i := 0; i < 70000; i++ {
			edb.Add("m", Num(float64(i)), Num(float64(i%3)), Num(float64(i%11)+0.1))
			if i%7 == 0 {
				edb.Add("m", Num(float64(i)), Num(float64(5)), Num(2.5))
			}
		}
		InsertionOrderCheck(t, "many-groups", growthProgram, edb, nil)
	})
	t.Run("one-big-group", func(t *testing.T) {
		edb := NewDatabase()
		for i := 0; i < 50000; i++ {
			edb.Add("m", Str("g"), Num(float64(i)), Num(1/float64(i+3)))
		}
		InsertionOrderCheck(t, "one-big-group", growthProgram, edb, nil)
	})
}

// TestAggUnboundGroupVariable builds the one rule shape the parser cannot:
// a head variable that is neither bound by the body nor existential. The
// engine and the reference refuse it at the aggregate.
func TestAggUnboundGroupVariable(t *testing.T) {
	p := MustParse(`total(G,S) :- m(G,I,W), S = msum(W,[I]).`)
	h := &p.Rules[0].Heads[0]
	h.Args = append(h.Args, Term{Kind: TVar, Name: "Z"})
	edb := NewDatabase()
	edb.Add("m", Str("g"), Num(1), Num(2))
	EquivCheck(t, "unbound-group-var", p, edb, nil)
	_, err := Run(p, edb, nil)
	if want := "datalog: line 1: head variable Z unbound at aggregate"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestIDLevelOperandsMatchSeed holds the walk's id-level comparisons, moves
// and float64 arithmetic to the reference chase's value-level ones: every
// operator over numbers (NaN, -0 and infinities included), strings,
// nulls-by-id and sets; X = Y as a move and as a filter; arithmetic that
// stays numeric, -0 results among them, and a refusal when it does not
// (the digest pins the text).
func TestIDLevelOperandsMatchSeed(t *testing.T) {
	edb := NewDatabase()
	vals := []Val{
		Num(0), Num(math.Copysign(0, -1)), Num(1), Num(-1), Num(2.5), Num(1e300), Num(math.Inf(1)),
		Num(math.NaN()), Str(""), Str("a"), Str("b"), List(Num(1), Str("a")), List(),
	}
	for i, a := range vals {
		edb.Add("v", Num(float64(i)), a)
		for j, b := range vals {
			edb.Add("pair", Num(float64(i)), Num(float64(j)), a, b)
		}
	}
	var src strings.Builder
	for i, op := range []string{"==", "!=", "in"} {
		fmt.Fprintf(&src, "any%d(I,J) :- pair(I,J,A,B), A %s B.\n", i, op)
		fmt.Fprintf(&src, "anyc%d(I) :- v(I,A), A %s \"a\".\n", i, op)
	}
	for i, op := range []string{"<", "<=", ">", ">="} {
		// Ordered comparison of a set is an error in both engines, so the
		// ordered operators see numbers and strings only.
		fmt.Fprintf(&src, "ord%d(I,J) :- pair(I,J,A,B), I < 11, J < 11, A %s B.\n", i, op)
		fmt.Fprintf(&src, "ordc%d(I) :- v(I,A), I < 11, A %s 1.\n", i, op)
		fmt.Fprintf(&src, "ordx%d(I,J) :- pair(I,J,A,B), I < 8, J < 8, A + 1 %s B * 2.\n", i, op)
	}
	src.WriteString(`
		move(I,B) :- v(I,A), B = A.
		filter(I,J) :- pair(I,J,A,B), A = B.
		konst(I) :- v(I,A), A = 2.5.
		arith(I,J,R) :- pair(I,J,A,B), I < 8, J < 8, R = (A + B) * -A - B / 4 + 1.
		ratio(I,J,R) :- pair(I,J,A,B), I < 8, J < 8, J > 1, R = A / B + 1.
		check(I,J) :- pair(I,J,A,B), I < 8, J < 8, A = B - 1.
		flip(I,R,S) :- v(I,A), I < 8, R = -A, S = A * -1.`)
	aggCheck(t, "operands", src.String(), edb)

	for _, bad := range []string{
		`r(R) :- pair(_I,_J,A,B), R = A / B.`,             // divides by zero, then meets strings
		`r(R) :- v(I,A), I > 7, R = A * 2.`,               // arithmetic on a string
		`r(R) :- v(I,A), I > 10, R = -A.`,                 // negation of a set
		`r(I) :- v(I,A), A < 1.`,                          // ordered comparison of a set
		`r(I) :- v(I,A), I > 10, A + 1 > 2.`,              // arithmetic on a set inside a comparison
		`r(G,S) :- pair(G,_J,A,_B), S = msum(A * 2,[A]).`, // computed aggregate argument over a string
	} {
		EquivCheck(t, bad, MustParse(bad), edb, nil)
	}
}
