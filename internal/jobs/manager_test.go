package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// testInput writes a throwaway dataset file (the manager only digests it).
func testInput(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte("I,Area\n1,Roma\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// journalScan is a journal read whole, for assertions: its committed records
// and whether bytes follow them.
type journalScan struct {
	Records []journal.Record
	Torn    bool
}

// Last returns the final committed record, or a zero Record if none.
func (s *journalScan) Last() journal.Record {
	if len(s.Records) == 0 {
		return journal.Record{}
	}
	return s.Records[len(s.Records)-1]
}

// readJournal collects the journal's iterator over the file at path, read
// through fsys (nil: the real filesystem).
func readJournal(fsys faultfs.FS, path string) (*journalScan, error) {
	it, err := journal.RecordsIn(context.Background(), fsys, path, journal.Cursor{})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	scan := &journalScan{}
	for it.Next() {
		rec := it.Record()
		rec.Payload = bytes.Clone(rec.Payload)
		scan.Records = append(scan.Records, rec)
	}
	scan.Torn = it.Torn()
	return scan, it.Err()
}

func fastOpts(t *testing.T) Options {
	return Options{
		Dir:         t.TempDir(),
		Workers:     2,
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryCap:    4 * time.Millisecond,
	}
}

// waitState polls until the job reaches a terminal state or the deadline.
func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job settled at %s (%q), want %s", j.State, j.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached %s", want)
	return Job{}
}

// scriptRunner runs a fixed number of fake iterations, failing per script.
type scriptRunner struct {
	mu         sync.Mutex
	iterations int           // checkpoints to emit per full run
	failUntil  int           // attempts 1..failUntil-1 fail...
	transient  bool          // ...with a transient error when true
	failAfter  int           // checkpoints to emit before failing (per attempt)
	calls      int           // attempts observed
	resumeLens []int         // len(resume) seen at each attempt
	block      chan struct{} // when non-nil, Run blocks here after failAfter checkpoints
}

func (r *scriptRunner) Run(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*Outcome, error) {
	r.mu.Lock()
	r.calls++
	call := r.calls
	r.resumeLens = append(r.resumeLens, len(resume))
	r.mu.Unlock()

	emit := func(i int) error {
		return checkpoint(anon.Checkpoint{
			Iteration: i,
			Decisions: []anon.Decision{{
				RowID: i + 1, Attr: "Area", Old: mdb.Const("Roma"),
				New: mdb.Null(uint64(i + 1)), Method: "local-suppression",
				Risk: 1, Iteration: i + 1, AffectedRows: 1,
			}},
			NewRisky: []int{i},
		})
	}
	done := len(resume)
	for i := done; i < r.iterations; i++ {
		if call < r.failUntil && i-done == r.failAfter {
			err := fmt.Errorf("attempt %d: assessor hiccup", call)
			if r.transient {
				return nil, risk.MarkTransient(err)
			}
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := emit(i); err != nil {
			return nil, err
		}
		if r.block != nil && i-done+1 == r.failAfter {
			select {
			case <-r.block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return &Outcome{Iterations: r.iterations, Decisions: r.iterations}, nil
}

func TestJobHappyPath(t *testing.T) {
	r := &scriptRunner{iterations: 3, failUntil: 0}
	opts := fastOpts(t)
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t), Params: map[string][]string{"measure": {"k-anonymity"}}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateDone)
	if got.Outcome == nil || got.Outcome.Iterations != 3 {
		t.Fatalf("outcome = %+v", got.Outcome)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d", got.Attempts)
	}

	scan, err := readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	types := make([]journal.Type, 0, len(scan.Records))
	for _, rec := range scan.Records {
		types = append(types, rec.Type)
	}
	want := []journal.Type{journal.TypeStart, journal.TypeIter, journal.TypeIter, journal.TypeIter, journal.TypeDone}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("journal records = %v, want %v", types, want)
	}
}

func TestTransientFailureRetriedFromJournaledProgress(t *testing.T) {
	// Attempts 1 and 2 die (transiently) after committing 1 new iteration
	// each; attempt 3 finishes. The resume slice must grow across attempts:
	// committed work is never redone.
	r := &scriptRunner{iterations: 4, failUntil: 3, transient: true, failAfter: 1}
	m, err := NewManager(r, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateDone)
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fmt.Sprint(r.resumeLens) != fmt.Sprint([]int{0, 1, 2}) {
		t.Fatalf("resume lengths across attempts = %v, want [0 1 2]", r.resumeLens)
	}
}

func TestPermanentFailureFailsFast(t *testing.T) {
	r := &scriptRunner{iterations: 4, failUntil: 99, transient: false}
	m, err := NewManager(r, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateFailed)
	if got.Attempts != 1 {
		t.Fatalf("permanent failure burned %d attempts, want 1", got.Attempts)
	}
	if !strings.Contains(got.Error, "hiccup") {
		t.Fatalf("error = %q", got.Error)
	}
}

// A settled job keeps none of its checkpoints: done, failed or cancelled, it
// never resumes, and their decisions would pin the input's cells for the
// manager's lifetime.
func TestSettledJobDropsCheckpoints(t *testing.T) {
	for _, c := range []struct {
		state  State
		runner *scriptRunner
	}{
		{StateDone, &scriptRunner{iterations: 3}},
		{StateFailed, &scriptRunner{iterations: 4, failUntil: 99, failAfter: 2}},
		{StateCancelled, &scriptRunner{iterations: 4, failAfter: 2, block: make(chan struct{})}},
	} {
		t.Run(string(c.state), func(t *testing.T) {
			opts := fastOpts(t)
			m, err := NewManager(c.runner, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			j, err := m.Submit(Spec{Dataset: testInput(t)})
			if err != nil {
				t.Fatal(err)
			}
			if c.state == StateCancelled {
				deadline := time.Now().Add(5 * time.Second)
				for {
					if jj, _ := m.Get(j.ID); len(jj.resume) >= 2 || time.Now().After(deadline) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err := m.Cancel(j.ID); err != nil {
					t.Fatal(err)
				}
			}
			if got := waitState(t, m, j.ID, c.state); len(got.resume) != 0 {
				t.Fatalf("%s job holds %d checkpoints", c.state, len(got.resume))
			}
			scan, err := readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
			if err != nil {
				t.Fatal(err)
			}
			if iters := len(scan.Records) - 2; iters < 2 {
				t.Fatalf("journal holds %d iterations, want a job that checkpointed", iters)
			}
		})
	}
}

func TestTransientFailureExhaustsAttempts(t *testing.T) {
	r := &scriptRunner{iterations: 4, failUntil: 99, transient: true}
	m, err := NewManager(r, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateFailed)
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want MaxAttempts=3", got.Attempts)
	}
}

func TestPanicIsolatedToJob(t *testing.T) {
	boom := RunnerFunc(func(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, cp anon.CheckpointFunc) (*Outcome, error) {
		if strings.HasSuffix(spec.Dataset, "boom.csv") {
			panic("measure exploded")
		}
		return &Outcome{}, nil
	})
	m, err := NewManager(boom, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	dir := t.TempDir()
	bad := filepath.Join(dir, "boom.csv")
	good := filepath.Join(dir, "ok.csv")
	for _, p := range []string{bad, good} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	jb, err := m.Submit(Spec{Dataset: bad})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, jb.ID, StateFailed)
	if !strings.Contains(got.Error, "panicked") {
		t.Fatalf("error = %q", got.Error)
	}
	// The pool survived: another job still executes.
	jg, err := m.Submit(Spec{Dataset: good})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, jg.ID, StateDone)
}

func TestCancelRunningJob(t *testing.T) {
	r := &scriptRunner{iterations: 100, failAfter: 1, block: make(chan struct{})}
	opts := fastOpts(t)
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	// Let it commit its first checkpoint, then cancel while blocked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if jj, _ := m.Get(j.ID); len(jj.resume) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateCancelled)
	if got.Outcome != nil {
		t.Fatal("cancelled job has an outcome")
	}
	// A user cancel is terminal: the journal must carry a done record...
	scan, err := readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if scan.Last().Type != journal.TypeDone {
		t.Fatalf("cancelled journal ends in %q, want done", scan.Last().Type)
	}
	// ...and cancelling again reports the job settled.
	if err := m.Cancel(j.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("second cancel: %v, want ErrTerminal", err)
	}
}

func TestCloseLeavesJournalResumableAndRecoverCompletes(t *testing.T) {
	opts := fastOpts(t)
	input := testInput(t)
	r := &scriptRunner{iterations: 5, failAfter: 2, block: make(chan struct{})}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Spec{Dataset: input})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if jj, _ := m.Get(j.ID); len(jj.resume) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.Close() // simulated crash/shutdown mid-run

	scan, err := readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if scan.Last().Type == journal.TypeDone {
		t.Fatal("shutdown wrote a terminal record; job would not resume")
	}

	r2 := &scriptRunner{iterations: 5}
	m2, err := NewManager(r2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != j.ID {
		t.Fatalf("resumed = %v, want [%s]", resumed, j.ID)
	}
	got := waitState(t, m2, j.ID, StateDone)
	if !got.Recovered {
		t.Fatal("resumed job not marked Recovered")
	}
	r2.mu.Lock()
	lens := r2.resumeLens
	r2.mu.Unlock()
	if len(lens) != 1 || lens[0] != 2 {
		t.Fatalf("resume lengths = %v, want [2]: committed iterations must not rerun", lens)
	}
	// The journal now ends terminally and has exactly 5 iter records total
	// across both processes — no duplicates.
	scan, err = readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, rec := range scan.Records {
		if rec.Type == journal.TypeIter {
			iters++
		}
	}
	if iters != 5 || scan.Last().Type != journal.TypeDone {
		t.Fatalf("recovered journal: %d iter records, last=%q", iters, scan.Last().Type)
	}
}

func TestRecoverTerminalJournalMaterializesJob(t *testing.T) {
	opts := fastOpts(t)
	r := &scriptRunner{iterations: 2}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateDone)
	m.Close()

	m2, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 0 {
		t.Fatalf("terminal job re-queued: %v", resumed)
	}
	got, err := m2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Outcome == nil || got.Outcome.Iterations != 2 {
		t.Fatalf("recovered terminal job = %+v", got)
	}
}

// TestRecoverSkipsUnrecoverableJournal: a journal Recover cannot recover —
// here one sorted first whose start record claims another job's id — is
// reported and left as it is, and every journal after it is still recovered.
func TestRecoverSkipsUnrecoverableJournal(t *testing.T) {
	opts := fastOpts(t)
	r := &scriptRunner{iterations: 2}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Spec{Dataset: testInput(t)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, j.ID, StateDone)
		ids = append(ids, j.ID)
	}
	m.Close()

	bad := filepath.Join(opts.Dir, "0000000000000000.journal")
	w, err := journal.CreateWith(bad, journal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(journal.TypeStart, startPayload{JobID: "ffffffffffffffff", Spec: Spec{Dataset: testInput(t)}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	before, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	resumed, err := m2.Recover()
	if err == nil || !strings.Contains(err.Error(), "0000000000000000.journal") || !strings.Contains(err.Error(), "claims job id") {
		t.Fatalf("Recover error = %v, want the bad journal named", err)
	}
	if len(resumed) != 0 {
		t.Fatalf("resumed %v, want none", resumed)
	}
	for _, id := range ids {
		if got, err := m2.Get(id); err != nil || got.State != StateDone {
			t.Fatalf("job %s after Recover: %+v, %v", id, got, err)
		}
	}
	if _, err := m2.Get("0000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the unrecoverable journal's job: err = %v, want ErrNotFound", err)
	}
	if after, err := os.ReadFile(bad); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("Recover touched the unrecoverable journal (err %v)", err)
	}
}

func TestRecoverRefusesChangedInput(t *testing.T) {
	opts := fastOpts(t)
	input := testInput(t)
	r := &scriptRunner{iterations: 5, failAfter: 1, block: make(chan struct{})}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Spec{Dataset: input})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if jj, _ := m.Get(j.ID); len(jj.resume) >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	if err := os.WriteFile(input, []byte("I,Area\n1,Milano\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "changed since submission") {
		t.Fatalf("job over a changed input = %s (%q), want failed/digest mismatch", got.State, got.Error)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := anon.Checkpoint{
		Iteration: 3,
		Decisions: []anon.Decision{
			{RowID: 7, Attr: "Area", Old: mdb.Const("Roma"), New: mdb.Null(4),
				Method: "local-suppression", Risk: 0.75, Iteration: 4, AffectedRows: 1},
			{RowID: 9, Attr: "Area", Old: mdb.Const("Milano"), New: mdb.Const("North"),
				Method: "global-recoding", Risk: 1, Iteration: 4, AffectedRows: 3},
		},
		Exhausted: []int{1, 2},
		NewRisky:  []int{5},
		RiskEval:  3 * time.Millisecond,
		Anon:      time.Millisecond,
	}
	back, err := decodeCheckpoint(encodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", cp) {
		t.Fatalf("round trip changed the checkpoint:\n  in:  %+v\n  out: %+v", cp, back)
	}
	// A suppression that somehow journaled a constant must be rejected, not
	// replayed into the dataset.
	bad := encodeCheckpoint(cp)
	bad.Decisions[0].New = "Roma"
	if _, err := decodeCheckpoint(bad); err == nil {
		t.Fatal("non-null suppression decoded without error")
	}

	// An iter payload copied out of a journal written before the decision
	// record moved to package anon: same bytes in, same bytes out.
	golden, err := os.ReadFile(filepath.Join("..", "anon", "testdata", "iter_payload.json"))
	if err != nil {
		t.Fatal(err)
	}
	var p iterPayload
	if err := json.Unmarshal(golden, &p); err != nil {
		t.Fatal(err)
	}
	if back, err = decodeCheckpoint(p); err != nil || len(back.Decisions) == 0 {
		t.Fatalf("golden iter payload: %d decisions, %v", len(back.Decisions), err)
	}
	if again, _ := json.Marshal(encodeCheckpoint(back)); !bytes.Equal(again, golden) {
		t.Fatalf("golden iter payload re-encodes to\n%s\nwant\n%s", again, golden)
	}
}

func TestSubmitRejectsMissingInput(t *testing.T) {
	m, err := NewManager(&scriptRunner{}, fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(Spec{Dataset: "/nonexistent/input.csv"}); err == nil {
		t.Fatal("submit with missing input succeeded")
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(nope) = %v, want ErrNotFound", err)
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(nope) = %v, want ErrNotFound", err)
	}
}

// A cancel landing during the retry backoff must settle the job
// immediately — not burn the rest of the delay, and not spend another
// attempt running the cycle against a dead context.
func TestCancelDuringBackoffSettlesImmediately(t *testing.T) {
	r := &scriptRunner{iterations: 2, failUntil: 99, transient: true}
	opts := fastOpts(t)
	opts.RetryBase = time.Minute // a full backoff would blow the test deadline
	opts.RetryCap = time.Minute
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t), Params: map[string][]string{"measure": {"k-anonymity"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first attempt to fail and the job to enter its backoff.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		calls := r.calls
		r.mu.Unlock()
		if calls >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first attempt never ran")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateCancelled)
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancel took %s — the backoff was not aborted", waited)
	}
	if got.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no attempt after cancel)", got.Attempts)
	}
	r.mu.Lock()
	calls := r.calls
	r.mu.Unlock()
	if calls != 1 {
		t.Fatalf("runner ran %d times, want 1", calls)
	}
}

// The jobs row of the journal conformance suite: wherever a crash cuts the
// last checkpoint record, Recover resumes the job from exactly the
// checkpoints of the clean prefix — one scan, torn tail gone — and the job
// completes on top of them.
func TestRecoverAtEveryCutOfLastRecord(t *testing.T) {
	opts := fastOpts(t)
	input := testInput(t)
	r := &scriptRunner{iterations: 5, failAfter: 2, block: make(chan struct{})}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(Spec{Dataset: input})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if jj, _ := m.Get(j.ID); len(jj.resume) >= 2 {
			break
		}
	}
	m.Close() // start + two checkpoints on disk, no terminal record

	path := filepath.Join(opts.Dir, j.ID+".journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prefix := strings.LastIndex(string(data[:len(data)-1]), "\n") + 1
	for cut := prefix; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r2 := &scriptRunner{iterations: 3}
		m2, err := NewManager(r2, opts)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := m2.Recover()
		if err != nil || len(resumed) != 1 || resumed[0] != j.ID {
			t.Fatalf("cut at %d: resumed = %v, %v", cut, resumed, err)
		}
		waitState(t, m2, j.ID, StateDone)
		m2.Close()
		if len(r2.resumeLens) != 1 || r2.resumeLens[0] != 1 {
			t.Fatalf("cut at %d: resume lengths = %v, want [1]: the clean prefix holds one checkpoint", cut, r2.resumeLens)
		}
		scan, err := readJournal(nil, path)
		if err != nil || scan.Torn || len(scan.Records) != 5 || scan.Last().Type != journal.TypeDone {
			t.Fatalf("cut at %d: completed journal: %d records, torn=%v, %v", cut, len(scan.Records), scan.Torn, err)
		}
	}
}

// Submit's two refusals that are about the manager, not the job, are typed so
// the server can tell them from a start record that could not be journaled:
// a full queue and a closed manager. Either way the job's journal is removed
// again, so the refused job never resurfaces in a later Recover.
func TestSubmitQueueFullAndClosedAreTyped(t *testing.T) {
	opts := fastOpts(t)
	opts.Workers = 1
	defer func(n int) { queueDepth = n }(queueDepth)
	queueDepth = 1
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m, err := NewManager(RunnerFunc(func(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, cp anon.CheckpointFunc) (*Outcome, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &Outcome{}, ctx.Err()
	}), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer close(release)

	in := testInput(t)
	running, err := m.Submit(Spec{Dataset: in})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the first job; the queue is empty again
	queued, err := m.Submit(Spec{Dataset: in})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(Spec{Dataset: in})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if journals, _ := filepath.Glob(filepath.Join(opts.Dir, "*.journal")); len(journals) != 2 {
		t.Fatalf("refused submit left its journal behind: %v", journals)
	}

	// Settle both jobs, so that nothing in the directory is left to resume.
	for _, j := range []Job{queued, running} {
		if err := m.Cancel(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, m, running.ID, StateCancelled)
	m.Close()
	if _, err := m.Submit(Spec{Dataset: in}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
	if journals, _ := filepath.Glob(filepath.Join(opts.Dir, "*.journal")); len(journals) != 2 {
		t.Fatalf("submit refused after Close left its journal behind: %v", journals)
	}
	again, err := NewManager(&scriptRunner{iterations: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if resumed, err := again.Recover(); err != nil || len(resumed) != 0 {
		t.Fatalf("a fresh manager resumed %v (%v), want nothing", resumed, err)
	}
}

// TestSubmitDuringRecoveryIsNotAdopted: the daemon serves /jobs/anonymize
// while start-up recovery is still globbing the job directory, so a Recover
// can see a journal whose Submit is between its start record and registering
// the job. The id is reserved before the journal exists, so Recover leaves
// it alone: the job runs once and one writer owns the journal. The race is
// made deterministic by recovering from inside the start record's commit.
func TestSubmitDuringRecoveryIsNotAdopted(t *testing.T) {
	r := &scriptRunner{iterations: 3}
	opts := fastOpts(t)
	var m *Manager
	var resumed []string
	var recoverErr error
	opts.JournalHook = func(id, path string) func(seq int, line []byte) error {
		return func(seq int, line []byte) error {
			if seq == 1 {
				resumed, recoverErr = m.Recover()
			}
			return nil
		}
	}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	if recoverErr != nil || len(resumed) != 0 {
		t.Fatalf("Recover inside Submit resumed %v (err %v), want nothing", resumed, recoverErr)
	}
	waitState(t, m, j.ID, StateDone)
	// A second, adopted copy of the job would still be queued or running.
	time.Sleep(50 * time.Millisecond)
	r.mu.Lock()
	calls := r.calls
	r.mu.Unlock()
	if calls != 1 {
		t.Fatalf("runner invoked %d times, want exactly once", calls)
	}
	m.Close()
	// The scan stops at the first sequence gap or repeat: two writers
	// interleaving their own sequence numbers would cut it short.
	scan, err := readJournal(nil, filepath.Join(opts.Dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + r.iterations + 1; scan.Torn || len(scan.Records) != want {
		t.Fatalf("journal holds %d gap-free records (torn %v), want %d: start, iterations, done",
			len(scan.Records), scan.Torn, want)
	}
}
