package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

func quickOpts() Options {
	return Options{
		Run:               "test",
		ShardSize:         64,
		LeaseTTL:          2 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		MaxAttempts:       3,
		RetryBase:         5 * time.Millisecond,
		RetryCap:          50 * time.Millisecond,
	}
}

// Property: for every distributable spec, Execute over healthy in-memory
// workers merges to the exact bits of a local Score.
func TestExecuteMatchesLocalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := testRows(rng, 1000)
	sup := NewSupervisor([]Transport{
		scoringTransport("w1", 0),
		scoringTransport("w2", time.Millisecond),
		scoringTransport("w3", 0),
	}, quickOpts())
	defer sup.Close()
	for _, spec := range testSpecs() {
		want, err := spec.Score(rows)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sup.Execute(context.Background(), spec, rows)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, spec.Kind, got, want)
	}
	if sup.Snapshot().LocalFallbacks != 0 {
		t.Fatalf("healthy run fell back locally: %+v", sup.Snapshot())
	}
}

// A worker that fails its first calls forces retries; the result must not
// change and the failing worker must be routed around.
func TestExecuteRetriesWorkerFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows := testRows(rng, 200)
	spec := testSpecs()[0]
	flaky := &funcTransport{addr: "flaky"}
	flaky.call = func(ctx context.Context, tk Task) (Reply, error) {
		if flaky.Calls() <= 2 {
			return Reply{}, fmt.Errorf("%w: flaky: connection refused", ErrWorkerLost)
		}
		return scoringTransport("flaky", 0).call(ctx, tk)
	}
	sup := NewSupervisor([]Transport{flaky, scoringTransport("good", 0)}, quickOpts())
	defer sup.Close()
	want, _ := spec.Score(rows)
	got, err := sup.Execute(context.Background(), spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "retry", got, want)
}

// With every worker down, Execute degrades to in-process scoring — same
// bits — and the supervisor reports Degraded.
func TestExecuteDegradesInProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rows := testRows(rng, 150)
	spec := testSpecs()[1]
	dead := &funcTransport{
		addr: "dead",
		call: func(ctx context.Context, tk Task) (Reply, error) {
			return Reply{}, fmt.Errorf("%w: dead: no route", ErrWorkerLost)
		},
		ping: func(ctx context.Context) error { return errors.New("no route") },
	}
	sup := NewSupervisor([]Transport{dead}, quickOpts())
	sup.Start()
	defer sup.Close()
	want, _ := spec.Score(rows)
	got, err := sup.Execute(context.Background(), spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "degraded", got, want)
	if sup.Snapshot().LocalFallbacks == 0 {
		t.Fatal("expected local fallbacks with a dead worker")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !sup.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never classified the dead worker as unhealthy")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// An empty fleet is degraded from the start.
	none := NewSupervisor(nil, quickOpts())
	defer none.Close()
	if !none.Degraded() {
		t.Fatal("empty supervisor must be degraded")
	}
	got, err = none.Execute(context.Background(), spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "empty fleet", got, want)
}

// RequireWorkers converts degradation into ErrDegraded / ErrWorkerLost
// instead of silent in-process execution.
func TestExecuteRequireWorkers(t *testing.T) {
	rows := testRows(rand.New(rand.NewSource(45)), 50)
	spec := testSpecs()[0]

	opts := quickOpts()
	opts.RequireWorkers = true
	none := NewSupervisor(nil, opts)
	defer none.Close()
	if _, err := none.Execute(context.Background(), spec, rows); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}

	dead := &funcTransport{
		addr: "dead",
		call: func(ctx context.Context, tk Task) (Reply, error) {
			return Reply{}, fmt.Errorf("%w: dead", ErrWorkerLost)
		},
	}
	sup := NewSupervisor([]Transport{dead}, opts)
	defer sup.Close()
	if _, err := sup.Execute(context.Background(), spec, rows); !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("err = %v, want ErrWorkerLost", err)
	}
}

// A deterministic scoring error is a task outcome: no retry, the exact
// message surfaces.
func TestExecuteScoringErrorNoRetry(t *testing.T) {
	rows := []TaskRow{{Pos: 0, ID: 7, Freq: 1, WeightSum: -1}}
	w := scoringTransport("w", 0)
	sup := NewSupervisor([]Transport{w}, quickOpts())
	defer sup.Close()
	_, err := sup.Execute(context.Background(), MeasureSpec{Kind: "re-identification"}, rows)
	want := "risk: row 7 has non-positive group weight -1"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if w.Calls() != 1 {
		t.Fatalf("scoring error was retried: %d calls", w.Calls())
	}
}

// A reply that does not answer its dispatch — another shard's, another
// dispatch's, a short value vector — or a call held past LeaseTTL is the
// worker's loss: nothing of it is merged, the worker is marked unhealthy and
// the shard is retried on the other worker.
func TestRejectedReplyIsRetriedElsewhere(t *testing.T) {
	rows := testRows(rand.New(rand.NewSource(47)), 200) // four shards: round-robin sends the bad worker at least one
	spec := testSpecs()[0]
	want, _ := spec.Score(rows)
	bad := func(mangle func(*Reply)) Transport {
		return &funcTransport{addr: "bad", call: func(ctx context.Context, tk Task) (Reply, error) {
			r, err := scoringTransport("bad", 0).call(ctx, tk)
			mangle(&r)
			return r, err
		}}
	}
	garbage := func(r *Reply) {
		for i := range r.Values {
			r.Values[i] = 42
		}
	}
	const leaseTTL = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		bad  func(t *testing.T) Transport
	}{
		{"wrong seq", func(*testing.T) Transport { return bad(func(r *Reply) { garbage(r); r.Seq++ }) }},
		{"wrong epoch", func(*testing.T) Transport { return bad(func(r *Reply) { garbage(r); r.Epoch++ }) }},
		{"truncated values", func(*testing.T) Transport { return bad(func(r *Reply) { r.Values = r.Values[:len(r.Values)/2] }) }},
		{"held past the lease", func(t *testing.T) Transport { return httpWorker(t, WorkerOptions{Hold: 5 * leaseTTL}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := quickOpts()
			opts.LeaseTTL = leaseTTL
			sup := NewSupervisor([]Transport{tc.bad(t), scoringTransport("good", 0)}, opts)
			defer sup.Close()
			got, err := sup.Execute(context.Background(), spec, rows)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, tc.name, got, want)
			st := sup.Snapshot()
			if st.Workers[0].Healthy || !st.Workers[1].Healthy || st.Retries == 0 {
				t.Fatalf("want the bad worker unhealthy, the good one healthy and retries: %+v", st)
			}

			// One dispatch on its own: lost, and no later than its lease.
			began := time.Now()
			if _, err := sup.call(context.Background(), sup.workers[0], 0, spec, rows[:64]); !errors.Is(err, ErrWorkerLost) {
				t.Fatalf("call = %v, want ErrWorkerLost", err)
			}
			if took := time.Since(began); took > 2*leaseTTL {
				t.Fatalf("call took %v against a %v lease", took, leaseTTL)
			}
		})
	}
}

// Hedged dispatch: a straggling worker's task is dispatched again and the
// first reply wins.
func TestHedging(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	rows := testRows(rng, 64) // one shard
	spec := testSpecs()[0]
	// Both workers are slow, so whichever gets the dispatch, the hedge
	// timer fires first; the first reply wins and the other call is
	// cancelled.
	slow := scoringTransport("slow", 150*time.Millisecond)
	slow2 := scoringTransport("slow2", 150*time.Millisecond)
	opts := quickOpts()
	opts.HedgeAfter = 30 * time.Millisecond
	sup := NewSupervisor([]Transport{slow, slow2}, opts)
	defer sup.Close()

	want, _ := spec.Score(rows)
	got, err := sup.Execute(context.Background(), spec, rows)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBits(t, "hedged", got, want)
	st := sup.Snapshot()
	if st.Hedges == 0 {
		t.Fatalf("no hedges launched: %+v", st)
	}
}

// A hedge goes to another worker or nowhere: a one-worker fleet launches
// none, a two-worker fleet hedges onto the other worker.
func TestHedgeNeverTargetsItsStraggler(t *testing.T) {
	rows := testRows(rand.New(rand.NewSource(46)), 64) // one shard
	spec := testSpecs()[0]
	opts := quickOpts()
	opts.HedgeAfter = 30 * time.Millisecond
	for _, n := range []int{1, 2} {
		var fleet []Transport
		var workers []*funcTransport
		for i := 0; i < n; i++ {
			w := scoringTransport(fmt.Sprintf("w%d", i), 150*time.Millisecond)
			fleet, workers = append(fleet, w), append(workers, w)
		}
		sup := NewSupervisor(fleet, opts)
		if _, err := sup.Execute(context.Background(), spec, rows); err != nil {
			t.Fatal(err)
		}
		if hedges := sup.Snapshot().Hedges; hedges != uint64(n-1) {
			t.Errorf("%d workers: %d hedges, want %d", n, hedges, n-1)
		}
		for _, w := range workers {
			if w.Calls() != 1 {
				t.Errorf("%d workers: %s got %d calls, want 1", n, w.addr, w.Calls())
			}
		}
		sup.Close()
	}
}

// The losing call of a hedge is cancelled when the round settles: it sees
// its context end as Execute returns, gives back its in-flight slot and its
// governor charge without waiting out its own delay, and its worker stays
// healthy — being outrun is not a failure.
func TestHedgeLoserIsCancelled(t *testing.T) {
	rows := testRows(rand.New(rand.NewSource(46)), 64) // one shard
	spec := testSpecs()[0]
	const straggle = 400 * time.Millisecond
	var calls atomic.Int32
	loser := make(chan time.Time, 1)
	answer := scoringTransport("", 0).call
	call := func(ctx context.Context, tk Task) (Reply, error) {
		if calls.Add(1) == 1 { // the first dispatch straggles, its hedge answers at once
			select {
			case <-ctx.Done():
				loser <- time.Now()
				return Reply{}, ctx.Err()
			case <-time.After(straggle):
			}
		}
		return answer(ctx, tk)
	}
	root := govern.New("server", govern.Limits{})
	opts := quickOpts()
	opts.HedgeAfter = 30 * time.Millisecond
	opts.Governor = root
	sup := NewSupervisor([]Transport{&funcTransport{addr: "a", call: call}, &funcTransport{addr: "b", call: call}}, opts)
	defer sup.Close()

	began := time.Now()
	got, err := sup.Execute(context.Background(), spec, rows)
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := spec.Score(rows)
	assertSameBits(t, "hedged", got, want)
	if took := returned.Sub(began); took >= straggle/2 {
		t.Fatalf("Execute took %v: the hedge did not win", took)
	}
	select {
	case done := <-loser:
		if gap := returned.Sub(done); gap.Abs() > 50*time.Millisecond {
			t.Fatalf("loser saw its context end %v away from Execute returning", gap)
		}
	case <-time.After(straggle / 4):
		t.Fatal("the losing call was never cancelled")
	}
	st := sup.Snapshot()
	for i, ws := range st.Workers {
		if ws.Inflight != 0 || sup.workers[i].gov.Used() != 0 || !ws.Healthy {
			t.Errorf("worker %s after the round: %+v, %d bytes charged", ws.Addr, ws, sup.workers[i].gov.Used())
		}
	}
	if used := root.Used(); used != 0 {
		t.Fatalf("root still charged %d bytes", used)
	}
}

// Per-worker governor scopes observe in-flight task bytes and drain to
// zero after the run.
func TestWorkerGovernorScopes(t *testing.T) {
	root := govern.New("server", govern.Limits{})
	rows := testRows(rand.New(rand.NewSource(48)), 500)
	opts := quickOpts()
	opts.Governor = root
	sup := NewSupervisor([]Transport{scoringTransport("w1", 0)}, opts)
	if _, err := sup.Execute(context.Background(), testSpecs()[0], rows); err != nil {
		t.Fatal(err)
	}
	if used := root.Used(); used != 0 {
		t.Fatalf("root still charged %d bytes after run", used)
	}
	sup.Close()
}

// The dist.Assessor integration: Rescore over workers is bitwise the
// wrapped measure's Rescore, for both the full build and the dirty-set
// fast path.
func TestAssessorRescoreBitwise(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(49))
	d := incrTestDataset(rng, 180, 3, 3)
	sup := NewSupervisor([]Transport{
		scoringTransport("w1", 0),
		scoringTransport("w2", 0),
	}, quickOpts())
	defer sup.Close()

	for _, inner := range []risk.IncrementalAssessor{
		risk.KAnonymity{K: 3},
		risk.ReIdentification{},
		risk.IndividualRisk{Estimator: risk.MonteCarlo, Samples: 30, Seed: 5},
		risk.LDiversity{L: 3, Sensitive: "A"},
		risk.TCloseness{T: 0.1, Sensitive: "A"},
	} {
		da, err := NewAssessor(inner, sup)
		if err != nil {
			t.Fatal(err)
		}
		if da.Name() != inner.Name() {
			t.Fatalf("name %q, want %q", da.Name(), inner.Name())
		}
		by, err := da.Grouping(d)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := mdb.BuildIndex(ctx, d, by, mdb.MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := inner.Rescore(ctx, idx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := da.Rescore(ctx, idx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, inner.Name()+"/full", got, want)

		// Dirty-set fast path after suppressions.
		qi := d.QuasiIdentifiers()
		for i := 0; i < 12; i++ {
			pos := rng.Intn(len(d.Rows))
			attr := qi[rng.Intn(len(qi))]
			if d.Rows[pos].Values[attr].IsNull() {
				continue
			}
			d.Rows[pos].Values[attr] = d.Nulls.Fresh()
			if err := idx.SuppressCell(pos, attr); err != nil {
				t.Fatal(err)
			}
		}
		dirty, err := idx.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := inner.Rescore(ctx, idx, dirty, want)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := da.Rescore(ctx, idx, dirty, got)
		if err != nil {
			t.Fatal(err)
		}
		assertSameBits(t, inner.Name()+"/dirty", got2, want2)
	}
}
