package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"syscall"

	"vadasa/internal/dist"
	"vadasa/internal/govern"
	"vadasa/internal/jobs"
	"vadasa/internal/replica"
	"vadasa/internal/risk"
	"vadasa/internal/stream"
)

// statusClientClosedRequest is the de-facto standard (nginx) status for a
// request whose client went away before the response was produced. It never
// reaches the disconnected client; it makes access logs and metrics
// distinguish "we were slow" (504) from "they hung up" (499).
const statusClientClosedRequest = 499

// handlerFunc is the shape of every route handler: it writes the success
// response itself and returns anything else as an error, which fail — and
// nothing but fail — turns into a response.
type handlerFunc func(s *server, w http.ResponseWriter, r *http.Request) error

// statusError is a failure the handler itself classified: the status it
// chose for err and, optionally, extra fields for the JSON body. A cause in
// the failure table outranks the status — a 400 "reading body" whose chain
// holds a blown deadline is a 504.
type statusError struct {
	status int
	err    error
	fields map[string]any
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{status: http.StatusBadRequest, err: err} }
func notFound(err error) error   { return &statusError{status: http.StatusNotFound, err: err} }
func conflict(err error) error   { return &statusError{status: http.StatusConflict, err: err} }
func gone(err error) error       { return &statusError{status: http.StatusGone, err: err} }
func unprocessable(err error) error {
	return &statusError{status: http.StatusUnprocessableEntity, err: err}
}

// errStandby refuses a request an unpromoted standby does not serve, with an
// explicit marker so clients and load balancers can tell "wrong node" from
// "overloaded node".
var errStandby error = &statusError{
	status: http.StatusServiceUnavailable,
	err:    errors.New("this node is a replication standby; send writes to the primary"),
	fields: map[string]any{"standby": true},
}

// errAtCapacity is the load shedder's refusal (-max-inflight).
var errAtCapacity = errors.New("server at capacity")

// replCallError marks a replication-protocol call (/repl/ship,
// /repl/promote) this node refused. A fencing error inside one means the
// *caller* holds the stale epoch — a 409 that demotes the sender — not that
// this node lost the primary role, which is what a fenced write means.
type replCallError struct{ err error }

func (e *replCallError) Error() string { return e.err.Error() }
func (e *replCallError) Unwrap() error { return e.err }

// failure is one row of the failure table: a cause recognised anywhere in
// an error's chain, the status and Retry-After it answers with, and the
// operator hint prefixed to the error text.
type failure struct {
	cause      string
	match      func(error) bool
	status     int
	retryAfter string
	hint       string
}

func isA[T error](err error) bool {
	var target T
	return errors.As(err, &target)
}

func is(targets ...error) func(error) bool {
	return func(err error) bool {
		for _, t := range targets {
			if errors.Is(err, t) {
				return true
			}
		}
		return false
	}
}

// failures maps every typed cause the daemon can meet onto its answer. The
// first matching row wins, so the order is part of the table: protocol and
// role refusals, then per-component state, then the server-wide resource
// causes, cancellation last (anything may fail *because* the deadline passed,
// and the more specific cause should speak first). ENOSPC stands before the
// budget row because a volume below -disk-headroom is reported as a budget
// error wrapping ENOSPC, and "out of space" is what the operator has to act
// on. An error matching no row answers with its statusError status, or 500.
var failures = []failure{
	{"shipment or promotion under a stale epoch", func(err error) bool { return isA[*replCallError](err) && isA[*replica.FencedError](err) }, 409, "", ""},
	{"shipment the standby could not apply", isA[*replCallError], 503, "5", ""},
	{"request an unpromoted standby does not serve", is(errStandby), 503, "5", ""},
	{"write on a demoted primary", isA[*replica.FencedError], 503, "5", "this node is no longer the primary (epoch superseded); retry against the current primary"},
	{"synchronous replication timed out", isA[*replica.SyncError], 503, "5", "synchronous replication could not reach a standby; the write was rolled back, retry shortly"},
	{"load shed (-max-inflight)", is(errAtCapacity), 429, "1", ""},

	{"stream window full", isA[*stream.WindowFullError], 429, "1", "stream window is full; GET the release and ack it to drain"},
	{"release pending publication", isA[*stream.PendingReleaseError], 409, "", "a release is pending publication; retry GET /release first"},
	{"release gate closed", isA[*stream.GateClosedError], 409, "", ""},
	{"stream draining", is(stream.ErrClosed), 503, "5", "stream is draining for shutdown"},
	{"unknown job", is(jobs.ErrNotFound), 404, "", ""},
	{"job already finished", is(jobs.ErrTerminal), 409, "", ""},
	{"job queue full or manager closing", is(jobs.ErrQueueFull, jobs.ErrClosed), 503, "5", "job queue is full or the manager is shutting down; retry shortly"},

	{"request body over the byte cap", isA[*http.MaxBytesError], 413, "", ""},
	{"dataset over -max-cells", isA[*cellLimitError], 413, "", ""},
	{"quasi-identifier set over a measure's limit", isA[*risk.ErrTooManyAttributes], 422, "", ""},
	{"shard workers down under -require-workers", is(dist.ErrDegraded, dist.ErrWorkerLost), 503, "5", "shard workers unavailable and -require-workers is set; retry when workers rejoin"},
	{"journal volume full or below -disk-headroom", is(syscall.ENOSPC), 503, "15", "journal volume out of space; retry when the operator frees disk"},
	{"resource budget exhausted (-mem-budget)", isA[*govern.ErrBudgetExceeded], 503, "15", "server resource budget exhausted; retry when load drops"},
	{"request deadline passed (-request-timeout)", is(context.DeadlineExceeded), 504, "", "request deadline exceeded (raise -request-timeout or shrink the dataset)"},
	{"client went away", is(context.Canceled), statusClientClosedRequest, "", "client cancelled the request"},
}

// fail answers the request with err: the status, Retry-After and hint of
// the first failure-table row that recognises a cause in err's chain, else
// the status the handler attached, else 500. The body is always
// {"error": text} plus whatever fields a statusError in the chain carries.
// It is the only code that writes an error response.
func (s *server) fail(w http.ResponseWriter, r *http.Request, err error) {
	// If the handler already started streaming a response, a second status
	// line would corrupt the stream — log and give up instead.
	if tw, ok := w.(*trackingWriter); ok && tw.wroteHeader {
		s.logf("vadasad: %s %s: error after response started (status %d already sent): %v",
			r.Method, r.URL.Path, tw.status, err)
		return
	}
	status := http.StatusInternalServerError
	body := map[string]any{}
	var se *statusError
	if errors.As(err, &se) {
		status = se.status
		for k, v := range se.fields {
			body[k] = v
		}
	}
	for i := range failures {
		f := &failures[i]
		if !f.match(err) {
			continue
		}
		status = f.status
		if f.retryAfter != "" {
			w.Header().Set("Retry-After", f.retryAfter)
		}
		if f.hint != "" {
			err = fmt.Errorf("%s: %w", f.hint, err)
		}
		break
	}
	body["error"] = err.Error()
	if err := s.writeJSON(w, status, body); err != nil {
		s.logf("vadasad: %s %s: %v", r.Method, r.URL.Path, err)
	}
}
