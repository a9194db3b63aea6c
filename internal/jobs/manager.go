package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// queueDepth bounds jobs waiting for a worker: Submit fails fast when the
// queue is full rather than blocking the caller. A variable only so that this
// package's test can fill the queue with two jobs.
var queueDepth = 256

// Options tunes a Manager. The zero value is usable: sensible defaults are
// filled in by NewManager.
type Options struct {
	// Dir is the journal directory. Required.
	Dir string
	// Workers bounds concurrent cycles (default 2).
	Workers int
	// MaxAttempts bounds runs per job including the first (default 3).
	// Only transient failures (risk.IsTransient) consume retries.
	MaxAttempts int
	// RetryBase is the first retry delay (default 100ms); each further
	// attempt doubles it up to RetryCap (default 5s). Actual delays are
	// jittered to 50–100% of the nominal value.
	RetryBase time.Duration
	RetryCap  time.Duration
	// FS is the filesystem journals and inputs are accessed through;
	// nil means the real one. Tests inject faultfs.Faulty to pin
	// disk-pressure behaviour deterministically.
	FS faultfs.FS
	// DiskHeadroom, when positive, is the free-byte floor for the
	// journal directory: appends are refused below it (pausing the
	// job), and paused jobs resume only once free space is back above
	// it.
	DiskHeadroom int64
	// Governor, when non-nil, is the scope job resource charges roll up
	// to (normally the server's root governor). Each job runs under its
	// own child scope; a saturated budget pauses the job rather than
	// failing it.
	Governor *govern.Governor
	// PauseProbe is how often paused jobs re-check for pressure to
	// clear (default 500ms; tests shorten it).
	PauseProbe time.Duration
	// JournalHook, when non-nil, builds the per-journal append observer
	// wired into every job journal (the replication shipper's Hook). id
	// is the job id, path its journal file. The observer sees each
	// record after the local fsync and may fail the append.
	JournalHook func(id, path string) func(seq int, line []byte) error
}

// Manager owns the worker pool and the journal directory. Create one with
// NewManager, call Recover once to re-queue interrupted jobs, and Close on
// shutdown; Close leaves running jobs' journals un-terminated on purpose so
// the next Recover resumes them.
type Manager struct {
	runner Runner
	opts   Options

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	idle    chan handoff // unbuffered: a send lands only with a waiting worker
	wg      sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	writers map[string]*journal.Writer
	cancels map[string]context.CancelFunc
	closed  bool
	// claimed holds the ids Submit has picked but not yet registered: their
	// journals exist, or are about to, and belong to no job Get or List can
	// see. Recover leaves them alone.
	claimed map[string]bool
}

// NewManager starts a manager with its worker pool. The journal directory is
// created if missing.
func NewManager(runner Runner, opts Options) (*Manager, error) {
	if runner == nil {
		return nil, fmt.Errorf("jobs: Runner is required")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobs: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating journal dir: %w", err)
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 5 * time.Second
	}
	if opts.PauseProbe <= 0 {
		opts.PauseProbe = 500 * time.Millisecond
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		runner:  runner,
		opts:    opts,
		baseCtx: ctx,
		stop:    stop,
		queue:   make(chan *Job, queueDepth),
		idle:    make(chan handoff),
		jobs:    make(map[string]*Job),
		writers: make(map[string]*journal.Writer),
		cancels: make(map[string]context.CancelFunc),
		claimed: make(map[string]bool),
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.resumeLoop()
	return m, nil
}

// journalConfig is the filesystem configuration one job's journal uses.
func (m *Manager) journalConfig(id, path string) journal.Config {
	cfg := journal.Config{FS: m.opts.FS, DiskHeadroom: m.opts.DiskHeadroom}
	if m.opts.JournalHook != nil {
		cfg.OnAppend = m.opts.JournalHook(id, path)
	}
	return cfg
}

// Close stops accepting submissions, cancels running cycles, and waits for
// the workers. Interrupted jobs keep their journals un-terminated — unlike a
// user Cancel, shutdown is not a verdict on the job, and Recover on the next
// start re-queues them from the last committed iteration.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, w := range m.writers {
		w.Close()
		delete(m.writers, id)
	}
}

// handoff is a job given straight to an idle worker with the submitter's
// parse of its input.
type handoff struct {
	j     *Job
	input *mdb.Dataset
}

// Submit journals and enqueues a new job. The start record — spec plus the
// input file's SHA-256 — hits disk before Submit returns, so a crash a
// microsecond later loses nothing. spec.Input goes to an idle worker with the
// job; a job that must wait is queued without it, holding only the path.
func (m *Manager) Submit(spec Spec) (Job, error) {
	input := spec.Input
	spec.Input = nil
	digest, size, err := digestFile(m.opts.FS, spec.Dataset)
	if err != nil {
		return Job{}, fmt.Errorf("jobs: digesting input: %w", err)
	}
	id, err := newID()
	if err != nil {
		return Job{}, err
	}
	// The id is claimed before its journal exists and until Submit returns:
	// a Recover running meanwhile (start-up recovery is backgrounded behind
	// an already serving daemon) would otherwise find a journal of no known
	// job, open a second writer on it and queue the job a second time.
	m.mu.Lock()
	m.claimed[id] = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.claimed, id)
		m.mu.Unlock()
	}()
	w, err := journal.CreateWith(m.journalPath(id), m.journalConfig(id, m.journalPath(id)))
	if err != nil {
		return Job{}, fmt.Errorf("jobs: creating journal: %w", err)
	}
	now := time.Now()
	//conftaint:ok spec.Input is nil here and json:"-" anyway: the record holds the input's path and digest, no cell
	if err := w.Append(journal.TypeStart, startPayload{JobID: id, Spec: spec, Digest: digest, Created: now}); err != nil {
		w.Close()
		return Job{}, fmt.Errorf("jobs: journaling start: %w", err)
	}
	j := &Job{ID: id, Spec: spec, State: StatePending, Created: now, inputBytes: size}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		w.Close()
		m.opts.FS.Remove(m.journalPath(id)) // a refused job must not recover
		return Job{}, ErrClosed
	}
	m.jobs[id] = j
	m.writers[id] = w
	m.mu.Unlock()

	select {
	case m.idle <- handoff{j, input}:
		return m.snapshot(j), nil
	default:
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Lock()
		delete(m.jobs, id)
		delete(m.writers, id)
		m.mu.Unlock()
		w.Close()
		m.opts.FS.Remove(m.journalPath(id))
		return Job{}, fmt.Errorf("%w (%d pending)", ErrQueueFull, cap(m.queue))
	}
	return m.snapshot(j), nil
}

// Get returns a copy of the job's current state.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return *j, nil
}

// List returns all known jobs, newest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// Cancel aborts a job. A queued job is finalized immediately; a running one
// has its context cancelled and the worker writes the terminal record. In
// both cases the journal gets a done record with state "cancelled" — unlike
// Close, a user cancel IS a verdict and the job must not resurrect on the
// next restart.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	switch j.State {
	case StatePending, StatePaused:
		m.finishLocked(j, StateCancelled, nil, "cancelled before execution")
		m.mu.Unlock()
		return nil
	case StateRunning:
		j.userCancel = true
		cancel := m.cancels[id]
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		m.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.State)
	}
}

// Recover scans the journal directory: journals ending in a done record are
// materialized as terminal jobs (status survives restarts); journals without
// one are jobs the previous process never finished — their committed
// iterations are decoded and the job re-queued to resume right after the
// last of them. Torn trailing records were, by the write-ahead contract,
// never acted upon, so truncating them loses no work. A journal that cannot
// be recovered is skipped, its bytes left for an operator, and the rest are
// recovered all the same. Returns the ids of re-queued jobs, and the errors
// of the skipped journals joined.
//
// The journals are loaded at once, outside the manager's lock; jobs are then
// registered, settled and queued, and errors joined, in path order
// (journal.RecoverDir).
func (m *Manager) Recover() ([]string, error) {
	var resumed []string
	var errs []error
	err := journal.RecoverDir(m.baseCtx, m.opts.FS, filepath.Join(m.opts.Dir, "*.journal"),
		func(path string) *recovery {
			id := strings.TrimSuffix(filepath.Base(path), ".journal")
			m.mu.Lock()
			defer m.mu.Unlock()
			if _, known := m.jobs[id]; known || m.claimed[id] {
				return nil
			}
			return &recovery{id: id, path: path}
		},
		func(rc *recovery) error { return rc.load(m) },
		func(rc *recovery, err error) {
			queued := false
			if err == nil && rc.job != nil {
				queued, err = m.adopt(rc)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("jobs: recovering %s: %w", filepath.Base(rc.path), err))
			} else if queued {
				resumed = append(resumed, rc.id)
			}
		})
	if err != nil {
		return nil, err
	}
	return resumed, errors.Join(errs...)
}

// errNotJob aborts the open of a *.journal file that is not a job journal —
// another consumer's file sharing the directory — before anything in it is
// touched. (A file that is no journal at all fails the same way with
// journal.ErrCorrupt.)
var errNotJob = errors.New("jobs: not a job journal")

// recovery is one journal Recover loads.
type recovery struct {
	id, path string
	// job is the recovered job, nil when the journal holds none (a fresh
	// journal, or one that is not a job's).
	job *Job
	// w is the open journal of an unterminated job, and failed why it
	// cannot resume, if it cannot.
	w      *journal.Writer
	failed string
}

// load reads one journal in one pass, keeping copies of only its first
// and last records: a terminal job needs nothing else. An unterminated
// journal's checkpoints are read in a second pass, and its input digested,
// the journal held open for the job to resume on. It takes no lock.
func (rc *recovery) load(m *Manager) error {
	var first, last journal.Record
	w, err := journal.Open(m.baseCtx, rc.path, m.journalConfig(rc.id, rc.path), func(rec journal.Record) error {
		if rec.Seq == 1 && rec.Type != journal.TypeStart {
			return errNotJob
		}
		if rec.Seq == 1 || rec.Type == journal.TypeDone {
			rec.Payload = bytes.Clone(rec.Payload)
		} else {
			rec.Payload = nil // a checkpoint: read again if the job resumes
		}
		if rec.Seq == 1 {
			first = rec
		}
		last = rec
		return nil
	})
	if errors.Is(err, errNotJob) || errors.Is(err, journal.ErrCorrupt) {
		return nil
	}
	if err != nil {
		return err
	}
	if err = rc.decode(m, w, first, last); err != nil || rc.w == nil {
		w.Close()
	}
	return err
}

// decode builds the job from a journal's first and last records, and for
// an unterminated one reads its checkpoints and checks its input; it keeps
// w only then.
func (rc *recovery) decode(m *Manager, w *journal.Writer, first, last journal.Record) error {
	if first.Seq == 0 {
		// Nothing durable ever committed (the crash landed inside the very
		// first append): there is no spec to resume, and nothing is lost.
		return nil
	}
	var start startPayload
	if err := first.Decode(&start); err != nil {
		return fmt.Errorf("decoding start record: %w", err)
	}
	if start.JobID != "" && start.JobID != rc.id {
		return fmt.Errorf("journal %s claims job id %s", rc.id, start.JobID)
	}
	j := &Job{ID: rc.id, Spec: start.Spec, Created: start.Created, Recovered: true}
	if last.Type == journal.TypeDone {
		var done donePayload
		if err := last.Decode(&done); err != nil {
			return fmt.Errorf("decoding done record: %w", err)
		}
		j.State = done.State
		j.Error = done.Error
		j.Attempts = done.Attempts
		j.Outcome = done.Outcome
		rc.job = j
		return nil
	}

	// Unterminated: the job was live when the process died. The open already
	// truncated any torn tail; rebuild the committed progress.
	it, err := journal.RecordsIn(m.baseCtx, m.opts.FS, rc.path, journal.Cursor{})
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		rec := it.Record()
		if rec.Seq == 1 {
			continue
		}
		if rec.Type != journal.TypeIter {
			return fmt.Errorf("unterminated journal holds a %q record", rec.Type)
		}
		var p iterPayload
		if err := rec.Decode(&p); err != nil {
			return fmt.Errorf("decoding iteration record: %w", err)
		}
		cp, err := decodeCheckpoint(p)
		if err != nil {
			return err
		}
		j.resume = append(j.resume, cp)
	}
	if err := it.Err(); err != nil {
		return err
	}

	// The journal is the truth about the input it was recorded against; a
	// dataset file that changed since would make every journaled decision
	// meaningless. Permanent failure, not a retry.
	if digest, size, err := digestFile(m.opts.FS, start.Spec.Dataset); err != nil {
		rc.failed = fmt.Sprintf("input vanished during recovery: %v", err)
	} else if digest != start.Digest {
		rc.failed = fmt.Sprintf("input %s changed since submission (digest %.12s != %.12s)", start.Spec.Dataset, digest, start.Digest)
	} else {
		j.inputBytes = size
	}
	rc.job, rc.w = j, w
	return nil
}

// adopt registers a loaded job: a terminal one as it is, an unterminated one
// with its journal, failed when its input cannot be trusted and otherwise
// queued to resume, which it reports.
func (m *Manager) adopt(rc *recovery) (queued bool, err error) {
	j := rc.job
	m.mu.Lock()
	if rc.w == nil {
		m.jobs[rc.id] = j
		m.mu.Unlock()
		return false, nil
	}
	if m.closed {
		m.mu.Unlock()
		rc.w.Close()
		return false, fmt.Errorf("manager is closed")
	}
	m.jobs[rc.id] = j
	m.writers[rc.id] = rc.w
	if rc.failed != "" {
		m.finishLocked(j, StateFailed, nil, rc.failed)
		m.mu.Unlock()
		return false, nil
	}
	j.State = StatePending
	m.mu.Unlock()

	select {
	case m.queue <- j:
		return true, nil
	default:
		m.mu.Lock()
		m.finishLocked(j, StateFailed, nil, "recovery queue full")
		m.mu.Unlock()
		return false, nil
	}
}

func (m *Manager) journalPath(id string) string {
	return filepath.Join(m.opts.Dir, id+".journal")
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case h := <-m.idle:
			m.execute(h.j, h.input)
		case j := <-m.queue:
			m.execute(j, nil)
		}
	}
}

// execute drives one job to a terminal state — or, when the manager itself
// shuts down mid-run, abandons it with the journal left open for recovery.
// input, when non-nil, is the first attempt's alone: no record keeps it, so
// the manager never pins a parsed table the cycle has cloned.
func (m *Manager) execute(j *Job, input *mdb.Dataset) {
	m.mu.Lock()
	if j.State != StatePending { // cancelled while queued
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	m.cancels[j.ID] = cancel
	j.State = StateRunning
	if j.Started.IsZero() {
		j.Started = time.Now()
	}
	m.mu.Unlock()
	if m.opts.Governor != nil {
		// Per-job scope: the cycle's datalog, SUDA and clone charges
		// roll up through it to the server budget, and Close refunds
		// whatever the attempt still held, pass or fail.
		jg := m.opts.Governor.Child("job "+j.ID, govern.Limits{})
		defer jg.Close()
		ctx = govern.With(ctx, jg)
	}
	defer func() {
		cancel()
		m.mu.Lock()
		delete(m.cancels, j.ID)
		m.mu.Unlock()
	}()

	for {
		m.mu.Lock()
		j.Attempts++
		attempt := j.Attempts
		m.mu.Unlock()

		out, err := m.attempt(ctx, j, input)
		input = nil // a retry parses the spool
		switch {
		case err == nil:
			m.mu.Lock()
			m.finishLocked(j, StateDone, out, "")
			m.mu.Unlock()
			return
		case ctx.Err() != nil:
			m.mu.Lock()
			if j.userCancel {
				m.finishLocked(j, StateCancelled, nil, err.Error())
			}
			// Manager shutdown: no terminal record — Recover resumes the
			// job from its last committed iteration on the next start.
			m.mu.Unlock()
			return
		case pausable(err):
			// Disk pressure or a saturated resource budget is
			// back-pressure, not a verdict: park the job at its last
			// journaled checkpoint with the journal open. The resume
			// loop re-queues it once pressure clears; across a restart
			// the un-terminated journal recovers it like any
			// interrupted job. The attempt is refunded — waiting for
			// space must not eat the retry budget.
			m.mu.Lock()
			j.Attempts--
			j.State = StatePaused
			j.Error = err.Error()
			m.mu.Unlock()
			return
		case risk.IsTransient(err) && attempt < m.opts.MaxAttempts:
			timer := time.NewTimer(m.backoff(attempt))
			select {
			case <-ctx.Done():
				// Cancelled or shut down while waiting: settle the job
				// now instead of looping into a doomed attempt — the
				// retry would only burn an attempt running the cycle
				// against a dead context.
				timer.Stop()
				m.mu.Lock()
				if j.userCancel {
					m.finishLocked(j, StateCancelled, nil, ctx.Err().Error())
				}
				// Manager shutdown: no terminal record — Recover resumes
				// the job from its last committed iteration.
				m.mu.Unlock()
				return
			case <-timer.C:
			}
		default:
			m.mu.Lock()
			m.finishLocked(j, StateFailed, nil, err.Error())
			m.mu.Unlock()
			return
		}
	}
}

// attempt runs the Runner once with panic isolation: a panicking measure or
// anonymizer fails this job (permanently — a deterministic cycle panics the
// same way on every retry) instead of killing the whole worker pool.
func (m *Manager) attempt(ctx context.Context, j *Job, input *mdb.Dataset) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("jobs: cycle panicked: %v", r)
		}
	}()
	// The input's text is the attempt's to hold, beside what the cycle
	// charges: a budget that fits the table but not its text pauses the job.
	g := govern.From(ctx)
	if err := g.ReserveBytes(j.inputBytes); err != nil {
		return nil, fmt.Errorf("jobs: input text: %w", err)
	}
	defer g.ReleaseBytes(j.inputBytes)
	m.mu.Lock()
	resume := j.resume[:len(j.resume):len(j.resume)]
	m.mu.Unlock()
	checkpoint := func(cp anon.Checkpoint) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		w := m.writers[j.ID]
		if w == nil {
			return fmt.Errorf("jobs: journal for %s is closed", j.ID)
		}
		// A failed append leaves no bytes behind — ENOSPC mid-write
		// included, shrinking needs no free space — so both an in-process
		// resume and a post-crash recovery see a clean journal; the error
		// decides the job's fate.
		if err := w.Append(journal.TypeIter, encodeCheckpoint(cp)); err != nil {
			return err
		}
		j.resume = append(j.resume, cp)
		return nil
	}
	spec := j.Spec
	spec.Input = input
	return m.runner.Run(ctx, j.ID, spec, resume, checkpoint)
}

// finishLocked writes the terminal journal record and settles the in-memory
// state. Callers hold m.mu.
func (m *Manager) finishLocked(j *Job, state State, out *Outcome, errMsg string) {
	if w := m.writers[j.ID]; w != nil {
		p := donePayload{State: state, Error: errMsg, Attempts: j.Attempts, Outcome: out}
		if aerr := w.Append(journal.TypeDone, p); aerr != nil && errMsg == "" {
			errMsg = fmt.Sprintf("journaling terminal state: %v", aerr)
		}
		w.Close()
		delete(m.writers, j.ID)
	}
	j.State = state
	j.Outcome = out
	j.Error = errMsg
	j.Finished = time.Now()
	j.resume = nil // never resumed again; its cells would pin the input
}

// snapshot copies a job under the lock.
func (m *Manager) snapshot(j *Job) Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return *j
}

// pressure reports why paused jobs cannot yet resume: the journal
// volume is below the disk-headroom floor, or the governor is
// saturated. Nil means the coast is clear.
func (m *Manager) pressure() error {
	if m.opts.DiskHeadroom > 0 {
		free, err := m.opts.FS.Free(m.opts.Dir)
		if err == nil && free >= 0 && free < m.opts.DiskHeadroom {
			return fmt.Errorf("jobs: %d bytes free below %d headroom: %w", free, m.opts.DiskHeadroom, syscall.ENOSPC)
		}
	}
	if m.opts.Governor != nil {
		if err := m.opts.Governor.Err(); err != nil {
			return err
		}
	}
	return nil
}

// resumeLoop periodically re-queues paused jobs once pressure clears.
// It is the other half of the pause contract: a job parked on ENOSPC
// or a saturated budget is the manager's to wake, not the client's.
func (m *Manager) resumeLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opts.PauseProbe)
	defer ticker.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case <-ticker.C:
			m.resumePaused()
		}
	}
}

func (m *Manager) resumePaused() {
	if m.pressure() != nil {
		return
	}
	m.mu.Lock()
	var ready []*Job
	for _, j := range m.jobs {
		if j.State == StatePaused {
			ready = append(ready, j)
		}
	}
	// Oldest first, ties by id: deterministic wake order.
	sort.Slice(ready, func(i, k int) bool {
		if !ready[i].Created.Equal(ready[k].Created) {
			return ready[i].Created.Before(ready[k].Created)
		}
		return ready[i].ID < ready[k].ID
	})
	for _, j := range ready {
		j.State = StatePending
		j.Error = ""
	}
	m.mu.Unlock()
	for _, j := range ready {
		select {
		case m.queue <- j:
		default:
			// Queue full: park again and try at the next probe.
			m.mu.Lock()
			if j.State == StatePending {
				j.State = StatePaused
			}
			m.mu.Unlock()
		}
	}
}

// backoff returns the jittered delay before retry number attempt+1:
// exponential in the attempt count, capped, and scattered over 50–100% of
// the nominal value so a burst of failures does not retry in lockstep.
func (m *Manager) backoff(attempt int) time.Duration {
	d := m.opts.RetryBase
	for i := 1; i < attempt && d < m.opts.RetryCap; i++ {
		d *= 2
	}
	if d > m.opts.RetryCap {
		d = m.opts.RetryCap
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + rand.N(half+1)
}
