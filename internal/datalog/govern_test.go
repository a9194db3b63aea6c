package datalog

import (
	"errors"
	"testing"

	"vadasa/internal/govern"
)

// chainProgram derives a long chain: next(i, i+1) facts drive
// reach(X,Y) transitively, growing the database by O(n^2) facts.
func chainProgram(t *testing.T, n int) (*Program, *Database) {
	t.Helper()
	p, err := Parse(`
		reach(X,Y) :- next(X,Y).
		reach(X,Z) :- reach(X,Y), next(Y,Z).
	`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("next", Num(float64(i)), Num(float64(i+1)))
	}
	return p, db
}

// An evaluation whose database outgrows the byte budget aborts with a
// typed govern.ErrBudgetExceeded instead of exhausting memory.
func TestGovernorAbortsOversizedChase(t *testing.T) {
	p, db := chainProgram(t, 60) // ~1800 derived facts, far over 4 KiB
	g := govern.New("evaluation", govern.Limits{MaxBytes: 4 << 10})
	_, err := Run(p, db, &Options{Governor: g})
	var ebe *govern.ErrBudgetExceeded
	if !errors.As(err, &ebe) {
		t.Fatalf("err = %v, want *govern.ErrBudgetExceeded", err)
	}
	if ebe.Resource != govern.Memory {
		t.Fatalf("tripped resource = %s, want memory", ebe.Resource)
	}
	// The aborted run must have refunded everything it reserved.
	if got := g.Used(); got != 0 {
		t.Fatalf("governor still holds %d bytes after abort", got)
	}
}

// A run that fits its budget succeeds, and its reservation is released
// on return.
func TestGovernorReleasedAfterRun(t *testing.T) {
	p, db := chainProgram(t, 10)
	g := govern.New("evaluation", govern.Limits{MaxBytes: 10 << 20})
	res, err := Run(p, db, &Options{Governor: g})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Has("reach", Num(0), Num(10)) {
		t.Fatal("chase did not derive reach(0,10)")
	}
	if got := g.Used(); got != 0 {
		t.Fatalf("governor still holds %d bytes after run", got)
	}
}

func TestEstimatedBytesTracksInserts(t *testing.T) {
	db := NewDatabase()
	if db.EstimatedBytes() != 0 {
		t.Fatalf("empty database estimates %d bytes", db.EstimatedBytes())
	}
	db.Add("p", Str("hello"), Num(1))
	one := db.EstimatedBytes()
	if one <= 0 {
		t.Fatalf("estimate after insert = %d", one)
	}
	db.Add("p", Str("hello"), Num(1)) // duplicate: no growth
	if db.EstimatedBytes() != one {
		t.Fatalf("duplicate insert changed estimate: %d -> %d", one, db.EstimatedBytes())
	}
	db.Add("p", Str("world"), Num(2))
	if db.EstimatedBytes() <= one {
		t.Fatalf("estimate did not grow: %d -> %d", one, db.EstimatedBytes())
	}
}

// The aggregate operator's tables count towards the estimate: the peak is
// above what the database alone ends at, and a budget that covers the
// database but not the group and contribution tables is refused.
func TestGovernorSeesAggregateState(t *testing.T) {
	p := MustParse(`total(G,S) :- m(G,I,W), S = msum(W,[I]).`)
	load := func() *Database {
		db := NewDatabase()
		for i := 0; i < 20000; i++ {
			db.Add("m", Num(float64(i%500)), Num(float64(i)), Num(0.5))
		}
		return db
	}
	res, err := Run(p, load(), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	dbOnly := res.DB().EstimatedBytes()
	// 20 000 contributions cost at least their group, contributor, chain and
	// argument columns: 20 bytes each.
	if res.Stats.PeakBytes < dbOnly+20*20000 {
		t.Fatalf("PeakBytes = %d, database alone %d: the aggregate tables are not counted", res.Stats.PeakBytes, dbOnly)
	}
	g := govern.New("evaluation", govern.Limits{MaxBytes: dbOnly + 1000})
	_, err = Run(p, load(), &Options{Governor: g})
	var ebe *govern.ErrBudgetExceeded
	if !errors.As(err, &ebe) {
		t.Fatalf("err = %v, want *govern.ErrBudgetExceeded", err)
	}
	if got := g.Used(); got != 0 {
		t.Fatalf("governor still holds %d bytes after abort", got)
	}
}
