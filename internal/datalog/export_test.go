package datalog

// Test-only exports. EquivCheck pins the rebuilt evaluator to the frozen
// pre-overhaul engine in eval_seed_test.go: identical fact sets, identical
// provenance answers, identical EGD violations and identical diagnostics,
// at every worker count. External test packages (which can import
// internal/programs without an import cycle) drive it over the declarative
// program library.

import (
	"strings"
	"testing"
)

// The frozen oracle reads an engine database through these two methods; they
// left the engine with its last callers and live on here so the oracle file
// stays as it was frozen.
func (db *Database) predsInsertionSafe() []string { return db.Predicates() }

// insertionFacts decodes a predicate's facts in insertion order — the order
// observable through provenance firsts and labelled-null minting.
func (db *Database) insertionFacts(pred string) []Tuple { return db.Rows(pred).tuples() }

// EquivWorkers are the worker counts every equivalence check runs under:
// forced-sequential and forced-parallel evaluation must be bit-identical.
var EquivWorkers = []int{1, 4}

// EquivCheck runs the program under both engines and fails the test on any
// observable divergence. opt must use budgets generous enough that neither
// engine trips them: work accounting legitimately differs (the new engine's
// join indexes prune candidates before they are counted), so budget-trip
// errors are the one sanctioned behavioural difference. The frozen engine
// reads edb; every run of the new one evaluates in a copy of it bulk-loaded
// cell by cell, so it must reason to the same result, provenance and
// explanations included, and edb is left as it was.
func EquivCheck(t testing.TB, name string, p *Program, edb *Database, opt *Options) {
	t.Helper()
	seedRes, seedErr := seedRun(p, edb, opt)
	for _, workers := range EquivWorkers {
		o := Options{}
		if opt != nil {
			o = *opt
		}
		o.Workers = workers
		res, err := Run(p, BulkCopy(edb), &o)
		tag := name + "/workers=" + itoa(workers)
		if seedErr != nil || err != nil {
			if seedErr == nil || err == nil || seedErr.Error() != err.Error() {
				t.Fatalf("%s: error mismatch:\n  seed: %v\n  new:  %v", tag, seedErr, err)
			}
			continue
		}
		compareResults(t, tag, p, seedRes, res)
	}
}

// BulkCopy re-loads a database through the Loader's typed cell calls, rows
// in insertion order, strings from a byte buffer the way the daemon passes
// them. A run evaluates in the database it is handed, so a test that runs
// one database more than once hands each run a copy.
func BulkCopy(db *Database) *Database {
	out := NewDatabase()
	for _, pred := range db.Predicates() {
		l := out.Loader(pred)
		rows := db.Rows(pred)
		for i := 0; i < rows.Len(); i++ {
			row := rows.Row(i)
			for j := 0; j < row.Len(); j++ {
				switch v := row.At(j); v.Kind() {
				case KStr:
					l.StrBytes([]byte(v.StrVal()))
				case KNum:
					l.Num(v.NumVal())
				case KNull:
					l.Null(v.NullID())
				default:
					l.Val(v)
				}
			}
			l.EndRow()
		}
	}
	return out
}

// SeedRunFacts runs the frozen pre-overhaul evaluator and returns how many
// facts the given predicate ended with. The regression benchmarks use it to
// pin the overhaul's speedup against the engine it replaced.
func SeedRunFacts(p *Program, edb *Database, opt *Options, pred string) (int, error) {
	res, err := seedRun(p, edb, opt)
	if err != nil {
		return 0, err
	}
	return len(res.Facts(pred)), nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func compareResults(t testing.TB, tag string, p *Program, seedRes *seedResult, res *Result) {
	t.Helper()
	sp, np := seedRes.Predicates(), res.DB().Predicates()
	if strings.Join(sp, ",") != strings.Join(np, ",") {
		t.Fatalf("%s: predicate sets differ:\n  seed: %v\n  new:  %v", tag, sp, np)
	}
	hasEGD := false
	for i := range p.Rules {
		if p.Rules[i].IsEGD {
			hasEGD = true
		}
	}
	for _, pred := range sp {
		sf, nf := seedRes.Facts(pred), res.Facts(pred)
		if len(sf) != len(nf) {
			t.Fatalf("%s: %s has %d facts under seed, %d under new", tag, pred, len(sf), len(nf))
		}
		for i := range sf {
			if sf[i].Key() != nf[i].Key() {
				t.Fatalf("%s: %s fact %d differs:\n  seed: %s\n  new:  %s",
					tag, pred, i, sf[i], nf[i])
			}
		}
		for _, f := range sf {
			sr, sok := seedRes.ProvenanceRule(pred, f...)
			nr, nok := res.ProvenanceRule(pred, f...)
			if sok != nok || (!hasEGD && sr != nr) {
				t.Fatalf("%s: ProvenanceRule(%s%s): seed (%d,%v) vs new (%d,%v)",
					tag, pred, f, sr, sok, nr, nok)
			}
			if hasEGD {
				// applySubst collision tie-breaks are map-ordered in the
				// seed engine and deterministic in the new one; when null
				// unification collapses two derived facts, which derivation
				// survives is unspecified in the seed. Only presence is
				// compared here; full derivation trees are only compared on
				// EGD-free programs.
				continue
			}
			se, serr := seedRes.Explain(pred, f...)
			ne, nerr := res.Explain(pred, f...)
			if (serr == nil) != (nerr == nil) {
				t.Fatalf("%s: Explain(%s%s) error mismatch: seed %v, new %v",
					tag, pred, f, serr, nerr)
			}
			if se != ne {
				t.Fatalf("%s: Explain(%s%s) differs:\n--- seed ---\n%s--- new ---\n%s",
					tag, pred, f, se, ne)
			}
		}
	}
	if len(seedRes.Violations) != len(res.Violations) {
		t.Fatalf("%s: %d violations under seed, %d under new",
			tag, len(seedRes.Violations), len(res.Violations))
	}
	for i := range seedRes.Violations {
		if seedRes.Violations[i].String() != res.Violations[i].String() {
			t.Fatalf("%s: violation %d differs:\n  seed: %s\n  new:  %s",
				tag, i, seedRes.Violations[i], res.Violations[i])
		}
	}
}
