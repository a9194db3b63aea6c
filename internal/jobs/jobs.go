// Package jobs runs anonymization cycles as durable, asynchronous jobs: a
// bounded worker pool executes submissions, every committed iteration is
// journaled through internal/journal before the cycle may proceed, transient
// assessor failures are retried with exponential backoff from the journaled
// progress, and on startup the journal directory is scanned so jobs
// interrupted by a crash resume from their last committed iteration.
//
// The package is deliberately ignorant of how a cycle is configured: the
// Runner interface is implemented by the embedding server, which interprets
// Spec.Params. jobs only guarantees durability, retries, and isolation.
package jobs

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"syscall"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/mdb"
)

// IsDiskPressure reports whether err stems from a full or
// quota-exhausted volume (ENOSPC, EDQUOT). Disk pressure is transient
// in a stronger sense than a flaky assessor: space can free at any
// moment and no number of back-to-back retries helps until it does —
// so the manager pauses the job at its journaled prefix instead of
// burning retry attempts or failing permanently.
func IsDiskPressure(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// pausable reports whether a run failure is back-pressure rather than
// a verdict on the job: disk pressure or a saturated resource budget.
func pausable(err error) bool {
	var ebe *govern.ErrBudgetExceeded
	return IsDiskPressure(err) || errors.As(err, &ebe)
}

// Spec describes one anonymization job. Its journaled fields must round-trip
// through JSON unchanged: the journal's start record is the only copy that
// survives a crash, and resuming with a different configuration would replay
// decisions into a cycle that never made them.
type Spec struct {
	// Dataset is the path of the input CSV. The file is digested at submit
	// time; recovery refuses to resume over a file that changed since.
	Dataset string `json:"dataset"`
	// Params carries the cycle configuration (measure, threshold, semantics,
	// anonymizer choices) in URL-query form, interpreted by the Runner.
	Params map[string][]string `json:"params,omitempty"`
	// Input, when non-nil, is the submitter's parse of Dataset. Submit hands
	// it to the first attempt when a worker is idle and drops it otherwise,
	// so the Runner sees it at most once; a Runner given none parses Dataset.
	Input *mdb.Dataset `json:"-"`
}

// State is a job's lifecycle phase.
type State string

// Job states. Pending, Running and Paused are transient; the rest are
// terminal and recorded in the journal's done record.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StatePaused marks a job parked at its last journaled checkpoint
	// because the disk ran out of headroom or the resource governor was
	// saturated. Paused is not a verdict: the manager re-queues the job
	// when pressure clears, and across a restart the un-terminated
	// journal makes Recover resume it like any interrupted job.
	StatePaused State = "paused"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Outcome summarizes a completed cycle. OutputPath points at the anonymized
// CSV the Runner wrote; the rest mirrors anon.Result's counters.
type Outcome struct {
	OutputPath    string  `json:"output_path"`
	Iterations    int     `json:"iterations"`
	InitialRisky  int     `json:"initial_risky"`
	EverRisky     int     `json:"ever_risky"`
	NullsInjected int     `json:"nulls_injected"`
	InfoLoss      float64 `json:"info_loss"`
	Residual      []int   `json:"residual,omitempty"`
	Decisions     int     `json:"decisions"`
}

// Job is the observable state of a submission. Accessors of Manager return
// copies, so readers never race the worker mutating the original.
type Job struct {
	ID       string    `json:"id"`
	Spec     Spec      `json:"spec"`
	State    State     `json:"state"`
	Error    string    `json:"error,omitempty"`
	Attempts int       `json:"attempts"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	Outcome  *Outcome  `json:"outcome,omitempty"`
	// Recovered marks a job re-queued from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`

	// resume holds the committed checkpoints of the current run, fed back
	// into the Runner on retry so a transient failure does not redo (or
	// double-journal) finished iterations.
	resume     []anon.Checkpoint
	userCancel bool
	// inputBytes is the size of the input's text, which every attempt
	// holds: the submitter's parse points into it, a runner given none
	// reads the spool.
	inputBytes int64
}

// Runner executes one anonymization cycle. resume carries the committed
// checkpoints to replay; checkpoint must be wired into the cycle so every
// iteration is journaled before the next one starts. Implementations label
// retryable failures with risk.MarkTransient; everything else is permanent.
type Runner interface {
	Run(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*Outcome, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*Outcome, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, id string, spec Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*Outcome, error) {
	return f(ctx, id, spec, resume, checkpoint)
}

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTerminal reports an operation on a job that already finished.
var ErrTerminal = errors.New("jobs: job already finished")

// ErrQueueFull reports a Submit refused because the bounded queue has no
// room; the job's journal has been removed again.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrClosed reports a Submit to a closing manager; its journal is removed.
var ErrClosed = errors.New("jobs: manager is closed")

// newID returns a 16-hex-char random job identifier.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// digestFile returns the hex SHA-256 of the file at path — the fingerprint
// recorded at submit time and re-checked before a recovery resumes over it —
// and its size.
func digestFile(fsys faultfs.FS, path string) (digest string, size int64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	if size, err = io.Copy(h, f); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), size, nil
}
