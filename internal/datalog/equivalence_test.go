package datalog

// Equivalence battery: the engine (interned columnar store, join indexes,
// partitioned deltas) against the reference chase and its recorded digests,
// across the corpus programs, the fuzz seeds, and handwritten programs
// covering every literal kind, existential chase, EGDs and aggregation.
// EquivCheck runs each case sequentially and with 4 workers; `make race`
// runs this file under the race detector.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fuzzEDB mirrors the FuzzRunSmall database.
func fuzzEDB() *Database {
	edb := NewDatabase()
	edb.Add("e", Str("a"))
	edb.Add("e", Str("b"))
	edb.Add("e2", Str("a"), Str("b"))
	edb.Add("e2", Str("b"), Str("a"))
	return edb
}

func graphEDB(seed int64, nodes, edges int) *Database {
	rng := rand.New(rand.NewSource(seed))
	edb := NewDatabase()
	for i := 0; i < nodes; i++ {
		edb.Add("node", Num(float64(i)))
	}
	for e := 0; e < edges; e++ {
		edb.Add("edge", Num(float64(rng.Intn(nodes))), Num(float64(rng.Intn(nodes))))
	}
	return edb
}

// capEDB holds conflicting capacities: cap(c, v) with several values per c,
// so "A = B :- cap(X,A), cap(X,B)" reports many violations, in both
// orientations, and exempt(c) for some c.
func capEDB() *Database {
	rng := rand.New(rand.NewSource(5))
	edb := NewDatabase()
	for i := 0; i < 40; i++ {
		edb.Add("cap", Str(fmt.Sprintf("c%d", rng.Intn(6))), Num(float64(rng.Intn(8))))
	}
	edb.Add("exempt", Str("c1"))
	edb.Add("exempt", Str("c4"))
	return edb
}

func TestEquivalenceCorpusPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "programs", "*.vada"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p := MustParse(string(src))
		edb := graphEDB(11, 12, 30)
		// The aggregation corpus program reads own(X,Y,W).
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			edb.Add("own",
				Str(fmt.Sprintf("p%d", rng.Intn(6))),
				Str(fmt.Sprintf("c%d", rng.Intn(6))),
				Num(float64(rng.Intn(10))/10))
		}
		EquivCheck(t, filepath.Base(f), p, edb, nil)
	}
}

func TestEquivalenceFuzzSeeds(t *testing.T) {
	seeds := []string{
		`p(X) :- e(X).`,
		`p(Y) :- p(X), e2(X,Y).`,
		`n(Y) :- n(X), succ(X,Y).` + ` succ(X,Y) :- n(X).` + ` n(zero).`,
		`q(X) :- e(X), not p(X). p(X) :- e(X).`,
		`t(G,S) :- e2(G,I), S = mcount([I]).`,
		`n(X),n(Y):-n(X).n(o),`, // regression corpus entry (parse may fail)
	}
	for i, src := range seeds {
		p, err := Parse(src)
		if err != nil {
			continue
		}
		EquivCheck(t, fmt.Sprintf("fuzz%d", i), p, fuzzEDB(),
			&Options{MaxFacts: 2000, MaxRounds: 200, MaxWork: 2_000_000})
	}
}

func TestEquivalenceHandwritten(t *testing.T) {
	cases := []struct {
		name string
		src  string
		edb  func() *Database
	}{
		{"closure", `
			path(X,Y) :- edge(X,Y).
			path(X,Z) :- path(X,Y), edge(Y,Z).`,
			func() *Database { return graphEDB(1, 10, 25) }},
		{"negation-strata", `
			linked(X) :- edge(X,_Y).
			linked(X) :- edge(_Y,X).
			isolated(X) :- node(X), not linked(X).
			pair(X,Y) :- isolated(X), isolated(Y), X < Y.`,
			func() *Database { return graphEDB(2, 14, 20) }},
		{"existential", `
			emp(X) :- works(X,_C).
			boss(X,Z) :- emp(X).
			sameboss(X,Y) :- boss(X,B), boss(Y,B).`,
			func() *Database {
				edb := NewDatabase()
				for i := 0; i < 5; i++ {
					edb.Add("works", Str(fmt.Sprintf("w%d", i)), Str("acme"))
				}
				return edb
			}},
		{"egd-unify", `
			d1(E,D) :- emp(E).
			d2(E,D) :- emp(E).
			dept(E,D) :- d1(E,D).
			dept(E,D) :- d2(E,D).
			D1 = D2 :- dept(E,D1), dept(E,D2).
			emp(ann). emp(bob).`,
			func() *Database { return NewDatabase() }},
		{"egd-violation", `
			cap(c1, 10). cap(c1, 20).
			A = B :- cap(X,A), cap(X,B).`,
			func() *Database { return NewDatabase() }},
		{"aggregation", `
			total(G,S) :- m(G,I,W), S = msum(W,[I]).
			big(G) :- m(G,I,_W), mcount([I]) >= 3.
			bag(G,L) :- m(G,I,W), L = munion(W,[I]).`,
			func() *Database {
				edb := NewDatabase()
				rng := rand.New(rand.NewSource(3))
				for i := 0; i < 30; i++ {
					edb.Add("m", Str(fmt.Sprintf("g%d", rng.Intn(4))),
						Num(float64(i)), Num(float64(rng.Intn(5))))
				}
				return edb
			}},
		{"assign-compare", `
			out(X, Y) :- src(X), Y = X * 2 + 1, Y > 4.
			eq(X) :- src(X), X = 3.
			half(X, H) :- src(X), H = X / 2.`,
			func() *Database {
				edb := NewDatabase()
				for i := 0; i < 8; i++ {
					edb.Add("src", Num(float64(i)))
				}
				return edb
			}},
		{"multihead-factrule", `
			base(a, 1). base(b, 2).
			lo(X), hi(X) :- base(X, _N).
			both(X) :- lo(X), hi(X).`,
			func() *Database { return NewDatabase() }},
		{"ground-query", `
			path(X,Y) :- edge(X,Y).
			path(X,Z) :- path(X,Y), edge(Y,Z).
			found(yes) :- path(0, 7).`,
			func() *Database { return graphEDB(4, 9, 22) }},
		{"repeated-vars", `
			selfloop(X) :- edge(X,X).
			sym(X,Y) :- edge(X,Y), edge(Y,X).`,
			func() *Database { return graphEDB(5, 8, 30) }},
		{"builtin-lists", `
			mem(X) :- item(L), cand(X), X in L.
			sized(L, N) :- item(L), N = len(L).`,
			func() *Database {
				edb := NewDatabase()
				edb.Add("item", List(Num(1), Num(2), Num(3)))
				edb.Add("item", List(Str("a")))
				edb.Add("cand", Num(2))
				edb.Add("cand", Str("a"))
				edb.Add("cand", Str("zz"))
				return edb
			}},
		// EGD bodies: every literal kind an EGD body can hold appears at
		// least once. The digest holds the violations in order, so each case
		// also pins the candidate enumeration order of the indexed join.
		{"egd-negated-atom", `
			A = B :- cap(X,A), cap(X,B), not exempt(X).`,
			capEDB},
		{"egd-ordered-comparison", `
			A = B :- cap(X,A), cap(X,B), A < B, A + 10 >= B.`,
			capEDB},
		{"egd-constants-repeated-var", `
			V1 = V2 :- self(M,M), attr(M,area,V1), attr(M,area,V2), kind(area,geo).`,
			func() *Database {
				edb := NewDatabase()
				for i, v := range []string{"north", "south", "north", "east"} {
					m := Str(fmt.Sprintf("m%d", i%2))
					edb.Add("attr", m, Str("area"), Str(v))
					edb.Add("attr", m, Str("sector"), Str(v))
					edb.Add("self", m, m)
					edb.Add("self", m, Str("other"))
				}
				edb.Add("kind", Str("area"), Str("geo"))
				edb.Add("kind", Str("sector"), Str("geo"))
				return edb
			}},
		{"egd-mixed-arities", `
			A = B :- cap(X,A), cap(X,B).`,
			func() *Database {
				edb := capEDB()
				edb.Add("cap", Str("c0"))
				edb.Add("cap", Str("c0"), Num(1), Str("extra"))
				edb.Add("cap", Str("c1"), Num(2), Num(3))
				return edb
			}},
		{"egd-nulls-two-passes", `
			dept(E,D) :- emp(E).
			dept(E,D) :- known(E,D).
			boss(D,B) :- dept(_E,D).
			D1 = D2 :- dept(E,D1), dept(E,D2).
			B1 = B2 :- boss(D,B1), boss(D,B2).
			B = N :- boss(D,B), named(D,N).`,
			func() *Database {
				edb := NewDatabase()
				for i := 0; i < 6; i++ {
					e := Str(fmt.Sprintf("e%d", i))
					edb.Add("emp", e)
					if i%2 == 0 {
						edb.Add("known", e, Str(fmt.Sprintf("d%d", i%4)))
					}
				}
				edb.Add("named", Str("d0"), Str("ann"))
				edb.Add("named", Str("d2"), Str("bob"))
				edb.Add("named", Str("d2"), Str("cho"))
				return edb
			}},
		{"egd-violation-order", `
			A = B :- cap(X,A), cap(X,B).
			A = B :- cap(_X,A), cap(_Y,B), A > 3, B > 3.`,
			capEDB},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			EquivCheck(t, tc.name, MustParse(tc.src), tc.edb(), nil)
		})
	}
}

// TestEquivalenceErrors: semantic errors are refused by the engine and by
// the reference, and the digest pins the engine's message.
func TestEquivalenceErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"div-by-zero", `out(Y) :- e2(X,_Z), Y = 1 / 0.`},
		{"non-number", `out(Y) :- e(X), Y = X + 1.`},
		{"agg-non-number", `out(G,S) :- e2(G,I), S = msum(I,[I]).`},
		{"list-compare", `out(X) :- item(X), X > 3.`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edb := fuzzEDB()
			edb.Add("item", List(Num(1)))
			EquivCheck(t, tc.name, MustParse(tc.src), edb, nil)
		})
	}
}

// randomProgram is the random%d cases' generator: one program mixing
// recursion, negation and aggregation over a random graph drawn from seed,
// its size cycling through eight steps.
func randomProgram(seed int64) (*Program, *Database) {
	p := MustParse(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Z) :- reach(X,Y), edge(Y,Z).
		indeg(Y,N) :- edge(X,Y), N = mcount([X]).
		sink(X) :- node(X), not hasout(X).
		hasout(X) :- edge(X,_Y).
		risky(X) :- sink(X), reach(_S, X).`)
	step := int(uint64(seed) % 8)
	return p, graphEDB(100+seed, 6+step*3, 10+step*8)
}

// TestEquivalenceRandomPrograms drives the engine over randomized graph
// workloads mixing recursion, negation and aggregation.
func TestEquivalenceRandomPrograms(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		p, edb := randomProgram(trial)
		EquivCheck(t, fmt.Sprintf("random%d", trial), p, edb, nil)
	}
}

// TestEquivalenceParallelDelta uses an input large enough to cross the
// delta-partitioning threshold, so the buffered parallel emission path is
// exercised and must stay bit-identical.
func TestEquivalenceParallelDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	edb := NewDatabase()
	n := 3 * parallelCandidateMin
	for i := 0; i < n; i++ {
		edb.Add("r", Num(float64(i)), Num(float64(i%97)))
	}
	src := `
		cls(K, I) :- r(I, K).
		paircount(K, N) :- cls(K, I), N = mcount([I]).
		flagged(I) :- r(I, K), small(K).
		small(K) :- paircount(K, N), N < 100.`
	EquivCheck(t, "parallel-delta", MustParse(src), edb, nil)
}

// TestEquivalenceGOMAXPROCS4 reruns a representative slice of the battery
// pinned to GOMAXPROCS(4), the configuration the issue calls out for the
// race detector.
func TestEquivalenceGOMAXPROCS4(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	EquivCheck(t, "gomaxprocs4-closure", MustParse(`
		path(X,Y) :- edge(X,Y).
		path(X,Z) :- path(X,Y), edge(Y,Z).
		cnt(X,N) :- path(X,Y), N = mcount([Y]).`),
		graphEDB(42, 12, 40), nil)
	EquivCheck(t, "gomaxprocs4-egd", MustParse(`
		boss(X,Z) :- emp(X).
		B1 = B2 :- boss(X,B1), boss(X,B2).
		emp(ann). emp(bob). emp(cho).`),
		NewDatabase(), nil)
}

// TestTraceIdentical pins the trace stream to testdata/trace.golden, the
// round lines the evaluator the engine replaced wrote for this program;
// workers > 1 must not change them.
func TestTraceIdentical(t *testing.T) {
	p := MustParse(`
		linked(X) :- edge(X,_Y).
		isolated(X) :- node(X), not linked(X).
		reach(X,Y) :- edge(X,Y).
		reach(X,Z) :- reach(X,Y), edge(Y,Z).`)
	want, err := os.ReadFile(filepath.Join("testdata", "trace.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		if _, err := Run(p, graphEDB(9, 10, 18), &Options{Trace: &buf, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(want) {
			t.Fatalf("workers=%d: trace differs:\n--- golden ---\n%s--- got ---\n%s", workers, want, buf.String())
		}
	}
}

// TestEvalStatsPopulated checks the observability block against ground truth
// on a program whose derivation counts are known.
func TestEvalStatsPopulated(t *testing.T) {
	p := MustParse(`
		path(X,Y) :- edge(X,Y).
		path(X,Z) :- path(X,Y), edge(Y,Z).`)
	edb := NewDatabase()
	for i := 0; i < 5; i++ {
		edb.Add("edge", Num(float64(i)), Num(float64(i+1)))
	}
	res, err := Run(p, edb, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.DerivedFacts != len(res.Facts("path")) {
		t.Fatalf("DerivedFacts = %d, want %d", s.DerivedFacts, len(res.Facts("path")))
	}
	if s.Rounds < 2 || s.MatchAttempts <= 0 || s.PeakBytes <= 0 || s.EGDPasses != 1 {
		t.Fatalf("implausible stats: %+v", s)
	}
	if s.Workers != 2 || s.MaxWork != 1_000_000_000 || s.Strata < 1 {
		t.Fatalf("option echo wrong: %+v", s)
	}
}
