package jobs

import (
	"context"
	"strings"
	"testing"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/journal"
)

// A checkpoint append refused for lack of disk headroom pauses the job
// at its journaled prefix; when space frees, the resume loop re-queues
// it and the second attempt starts from the committed checkpoints.
func TestDiskPressurePausesAndResumes(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	opts := fastOpts(t)
	opts.FS = faulty
	opts.DiskHeadroom = 1 << 20
	opts.PauseProbe = 2 * time.Millisecond

	r := &scriptRunner{iterations: 4, failAfter: 2, block: make(chan struct{})}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	// The runner parks after journaling 2 checkpoints; drop free space
	// below the headroom floor, then let it try checkpoint 3.
	waitCheckpoints(t, m, j.ID, 2)
	faulty.SetFree(100)
	close(r.block)

	paused := waitState(t, m, j.ID, StatePaused)
	if !strings.Contains(paused.Error, "headroom") {
		t.Fatalf("paused job error = %q, want a headroom explanation", paused.Error)
	}
	if paused.Attempts != 0 {
		t.Fatalf("paused job consumed %d attempts; pauses must be free", paused.Attempts)
	}

	// The journal holds exactly the committed prefix, no torn tail.
	scan, err := readJournal(faulty, m.journalPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(scan.Records); got != 3 || scan.Torn { // start + 2 iters
		t.Fatalf("journal has %d records (torn=%v), want 3 clean", got, scan.Torn)
	}

	faulty.SetFree(-1) // space freed
	got := waitState(t, m, j.ID, StateDone)
	if got.Outcome == nil || got.Outcome.Iterations != 4 {
		t.Fatalf("outcome = %+v, want 4 iterations", got.Outcome)
	}
	if got.Attempts != 1 {
		t.Fatalf("finished with %d attempts, want 1", got.Attempts)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.resumeLens) != 2 || r.resumeLens[0] != 0 || r.resumeLens[1] != 2 {
		t.Fatalf("resume lengths per attempt = %v, want [0 2]", r.resumeLens)
	}
}

// waitCheckpoints polls until the job's journal holds the start record
// plus n committed iterations.
func waitCheckpoints(t *testing.T, m *Manager, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		got := 0
		if j := m.jobs[id]; j != nil {
			got = len(j.resume)
		}
		m.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job never journaled %d checkpoints", n)
}

// A run failing on a saturated resource budget pauses instead of
// consuming retries, and resumes once the budget frees.
func TestGovernorSaturationPausesAndResumes(t *testing.T) {
	gov := govern.New("server", govern.Limits{MaxBytes: 1000})
	hold := gov.Child("hog", govern.Limits{})
	if err := hold.ReserveBytes(1000); err != nil {
		t.Fatal(err)
	}

	runner := RunnerFunc(func(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, cp anon.CheckpointFunc) (*Outcome, error) {
		// Model a cycle whose clone reservation trips the budget while
		// the hog holds it all, exactly as anon.ResumeContext would.
		if err := govern.From(ctx).ReserveBytes(500); err != nil {
			return nil, err
		}
		return &Outcome{Iterations: 1}, nil
	})

	opts := fastOpts(t)
	opts.Governor = gov
	opts.PauseProbe = 2 * time.Millisecond
	m, err := NewManager(runner, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StatePaused)
	hold.Close() // budget freed
	got := waitState(t, m, j.ID, StateDone)
	if got.Attempts != 1 {
		t.Fatalf("finished with %d attempts, want 1", got.Attempts)
	}
	// The job's scope closes just after the state settles; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for gov.Used() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if used := gov.Used(); used != 0 {
		t.Fatalf("governor holds %d bytes after the job finished", used)
	}
}

// Cancelling a paused job settles it immediately with a terminal
// journal record; it must not resurrect when pressure clears.
func TestCancelPausedJob(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	opts := fastOpts(t)
	opts.FS = faulty
	opts.DiskHeadroom = 1 << 20
	opts.PauseProbe = time.Hour // keep the resume loop out of this test

	r := &scriptRunner{iterations: 2, failAfter: 1, block: make(chan struct{})}
	m, err := NewManager(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Dataset: testInput(t)})
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoints(t, m, j.ID, 1)
	faulty.SetFree(100)
	close(r.block)
	waitState(t, m, j.ID, StatePaused)

	faulty.SetFree(-1) // space back — the done record can be journaled
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", got.State)
	}
	scan, err := readJournal(faulty, m.journalPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	if last := scan.Last(); last.Type != journal.TypeDone {
		t.Fatalf("journal last record = %s, want done", last.Type)
	}
}
