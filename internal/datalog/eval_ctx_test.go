package datalog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRunContextPreCancelled(t *testing.T) {
	p := MustParse(`
		f(a).
		g(X) :- f(X).
	`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, p, NewDatabase(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextNilIsBackground(t *testing.T) {
	p := MustParse(`
		f(a).
		g(X) :- f(X).
	`)
	res, err := RunContext(nil, p, NewDatabase(), nil)
	if err != nil {
		t.Fatalf("RunContext(nil, ...) = %v", err)
	}
	if !res.Has("g", Str("a")) {
		t.Fatal("derivation missing")
	}
}

// TestRunContextCancelsLongChase points the engine at a four-way cross join
// far beyond anything it could finish, blows a short deadline, and requires
// the fixpoint to stop within the poll interval instead of burning through
// the (deliberately enormous) work budget.
func TestRunContextCancelsLongChase(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "a(%d).\n", i)
	}
	sb.WriteString("hit(X) :- a(X), a(Y), a(Z), a(W), X > Y, Y > Z, Z > W.\n")
	p := MustParse(sb.String())

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, p, NewDatabase(), &Options{MaxWork: 1 << 62})
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s; the fixpoint is not polling the context", elapsed)
	}
}

// TestWorkBudgetIsExact writes the budget contract down: a run fails iff the
// attempts it needs exceed MaxWork, with one text, at every worker count.
// Walks settle their private counts in batches, so the overrun is noticed a
// little late — never missed: a program that needs exactly W attempts runs
// at MaxWork W and fails at W-1, whether W is far below one batch (only the
// settle at the walk's end can notice) or spread over parallel partitions.
func TestWorkBudgetIsExact(t *testing.T) {
	big := NewDatabase()
	for i := 0; i < 5000; i++ {
		big.Add("p", Num(float64(i)), Num(float64(i%50)))
	}
	for k := 0; k < 50; k += 2 {
		big.Add("q", Num(float64(k)), Str("j"))
	}
	cases := []struct {
		name string
		src  string
		edb  *Database
	}{
		{"below-one-batch", `
			path(X,Y) :- edge(X,Y).
			path(X,Z) :- path(X,Y), edge(Y,Z).`, graphEDB(3, 8, 14)},
		{"partitioned-join", `pair(I,J) :- p(I,K), q(K,J).`, big},
		{"aggregate-egd-and-early-stop", `
			nonempty("yes") :- p(_I,_K).
			size(K,N) :- p(I,K), N = mcount([I]).
			K1 = K2 :- p(I,K1), p(I,K2).`, big},
	}
	for _, tc := range cases {
		p := MustParse(tc.src)
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			res, err := Run(p, BulkCopy(tc.edb), &Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w := res.Stats.MatchAttempts
			exact, err := Run(p, BulkCopy(tc.edb), &Options{Workers: workers, MaxWork: w})
			if err != nil {
				t.Fatalf("%s: MaxWork %d, exactly what the run needs: %v", name, w, err)
			}
			if exact.Stats.MatchAttempts != w || exact.DB().Len() != res.DB().Len() {
				t.Fatalf("%s: the run at its exact budget differs: %+v vs %+v", name, exact.Stats, res.Stats)
			}
			_, err = Run(p, BulkCopy(tc.edb), &Options{Workers: workers, MaxWork: w - 1})
			want := fmt.Sprintf("datalog: exceeded the work budget of %d match attempts (join explosion?)", w-1)
			if err == nil || err.Error() != want {
				t.Fatalf("%s: MaxWork %d: err = %v, want %q", name, w-1, err, want)
			}
		}
	}
}

// pollCountingCtx reports cancellation from its (after+1)-th Err call on.
type pollCountingCtx struct {
	context.Context
	after, polls int
}

func (c *pollCountingCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancellationLatencyInAttempts bounds, in match attempts rather than
// wall time, how long a walk can go on after its context is cancelled: it
// polls once per 8192 attempts of its own, so a sequential cross join whose
// context turns cancelled right after the k-th poll stops at the (k+1)-th —
// 8192 attempts later, not at the end of the join.
func TestCancellationLatencyInAttempts(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "a(%d).\n", i)
	}
	sb.WriteString("hit(X) :- a(X), a(Y), a(Z), X > Y, Y > Z.\n")
	p := MustParse(sb.String())
	// Poll 1 is RunContext's own, before any join work; polls 2 to 4 are the
	// walk's, each after 8192 more attempts. The fifth sees the cancellation.
	ctx := &pollCountingCtx{Context: context.Background(), after: 4}
	_, err := RunContext(ctx, p, NewDatabase(), &Options{Workers: 1})
	want := fmt.Sprintf("datalog: evaluation cancelled after %d match attempts: context canceled", 4*8192)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// TestRunContextCancelsPartitionedJoin is TestRunContextCancelsLongChase for
// the partitioned path: two workers each in a private walk over a chunk of
// the first atom, every one of which must see the deadline.
func TestRunContextCancelsPartitionedJoin(t *testing.T) {
	edb := NewDatabase()
	for i := 0; i < 6000; i++ {
		edb.Add("a", Num(float64(i)))
	}
	p := MustParse(`hit(X) :- a(X), a(Y), a(Z), X > Y, Y > Z.`)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, p, edb, &Options{MaxWork: 1 << 62, Workers: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s; a partition is not polling the context", elapsed)
	}
}
