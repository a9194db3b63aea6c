package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// The epoch fence: a late reply whose lease was revoked is discarded even
// though it is structurally valid, and a second reply for a settled task
// is discarded too.
func TestAdmitFence(t *testing.T) {
	sup := NewSupervisor(nil, quickOpts())
	defer sup.Close()
	task := &taskState{seq: 3, valid: map[uint64]bool{}}

	e1 := sup.grant(task)
	e2 := sup.grant(task) // hedge: both valid at once
	sup.revoke(task, e1)

	// Revoked epoch: fenced out.
	if ok, corrupt := sup.admit(task, Reply{Seq: 3, Epoch: e1, Values: []float64{1}}, 1, "w"); ok || corrupt {
		t.Fatalf("revoked epoch admitted (ok=%v corrupt=%v)", ok, corrupt)
	}
	// Wrong task: fenced out.
	if ok, _ := sup.admit(task, Reply{Seq: 4, Epoch: e2, Values: []float64{1}}, 1, "w"); ok {
		t.Fatal("wrong-seq reply admitted")
	}
	// Truncated reply on a valid epoch: revokes that lease, not admitted.
	e3 := sup.grant(task)
	if ok, corrupt := sup.admit(task, Reply{Seq: 3, Epoch: e3, Values: []float64{1}}, 2, "w"); ok || !corrupt {
		t.Fatalf("truncated reply: ok=%v corrupt=%v, want rejected+corrupt", ok, corrupt)
	}
	if ok, _ := sup.admit(task, Reply{Seq: 3, Epoch: e3, Values: []float64{1, 2}}, 2, "w"); ok {
		t.Fatal("reply admitted on lease revoked for truncation")
	}
	// The surviving hedge epoch wins...
	if ok, _ := sup.admit(task, Reply{Seq: 3, Epoch: e2, Values: []float64{1, 2}}, 2, "w"); !ok {
		t.Fatal("valid hedge reply rejected")
	}
	// ...and settles the task: every later reply dies at the fence.
	e4 := sup.grant(task)
	if ok, _ := sup.admit(task, Reply{Seq: 3, Epoch: e4, Values: []float64{1, 2}}, 2, "w"); ok {
		t.Fatal("reply admitted after task settled")
	}
	if sup.Snapshot().StaleReplies == 0 {
		t.Fatal("fence rejections not counted")
	}
}

// Hedged dispatch: a straggling worker's task is re-dispatched and the
// hedge's reply wins; the straggler's late reply is fenced, not merged.
func TestHedging(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	rows := testRows(rng, 64) // one shard
	spec := testSpecs()[0]
	// Both workers are slow, so whichever gets the dispatch, the hedge
	// timer fires first; the first reply wins and the sibling is fenced.
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
	if used := root.Used(govern.Memory); used != 0 {
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
