package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"vadasa"
	"vadasa/internal/anon"
	"vadasa/internal/jobs"
)

// jobRoutes registers the asynchronous job API on the mux. Only called when
// the manager is configured (-job-dir).
func (s *server) jobRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs/anonymize", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
}

// handleJobSubmit accepts the same CSV body and query parameters as the
// synchronous /anonymize, but spools the input to the job directory and
// returns 202 with the job id immediately. The cycle runs on the manager's
// worker pool, journaling every iteration; progress survives crashes.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission control: while any server budget is saturated or the job
	// volume is below its disk-headroom floor, a new job could only run
	// straight into a pause — refuse it up front so the client retries
	// against a server that can actually make progress. Existing paused
	// jobs keep their claim on the capacity that frees up.
	if err := s.govern.Err(); err != nil {
		s.failRequest(w, http.StatusServiceUnavailable, err)
		return
	}
	body, err := readBody(w, r, s.bodyLimit())
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	if len(body) == 0 {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("empty body; POST a CSV with a header row"))
		return
	}
	// Validate cheaply before persisting anything: a bad measure name or an
	// unparsable CSV must fail the request, not a job three seconds later.
	if _, err := s.measureFromValues(r.URL.Query()); err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	f, err := s.newFramework()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	if _, _, err := buildDataset(f, body, r.URL.Query(), s.cellCap()); err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
	}

	input, err := s.spoolInput(body)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	j, err := s.jobs.Submit(jobs.Spec{Dataset: input, Params: r.URL.Query()})
	if err != nil {
		os.Remove(input)
		w.Header().Set("Retry-After", "5")
		s.httpError(w, http.StatusServiceUnavailable,
			fmt.Errorf("job queue is full or the manager is shutting down; retry shortly: %w", err))
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	s.writeJSON(w, http.StatusAccepted, j)
}

// spoolInput persists the uploaded CSV under the job directory so the job —
// and any post-crash resumption — reads the exact bytes the client sent.
func (s *server) spoolInput(body []byte) (string, error) {
	f, err := os.CreateTemp(s.jobDir, "input-*.csv")
	if err != nil {
		return "", fmt.Errorf("spooling input: %w", err)
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("spooling input: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("spooling input: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spooling input: %w", err)
	}
	return f.Name(), nil
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.List()})
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.httpError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, j)
}

// handleJobResult streams the anonymized CSV of a finished job. 409 while
// the job is still in flight, 410 when it failed or was cancelled.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		s.httpError(w, http.StatusNotFound, err)
		return
	}
	switch {
	case !j.State.Terminal():
		s.httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; poll /jobs/%s", j.ID, j.State, j.ID))
		return
	case j.State != jobs.StateDone || j.Outcome == nil:
		s.httpError(w, http.StatusGone, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error))
		return
	}
	out, err := os.Open(j.Outcome.OutputPath)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, fmt.Errorf("job output missing: %w", err))
		return
	}
	defer out.Close()
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(w, out); err != nil {
		s.logPrintf("vadasad: streaming job %s result: %v", j.ID, err)
	}
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.jobs.Cancel(id); {
	case err == nil:
		s.writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
	case errors.Is(err, jobs.ErrNotFound):
		s.httpError(w, http.StatusNotFound, err)
	case errors.Is(err, jobs.ErrTerminal):
		s.httpError(w, http.StatusConflict, err)
	default:
		s.httpError(w, http.StatusInternalServerError, err)
	}
}

// jobRunner adapts the server's framework plumbing to jobs.Runner: it
// rebuilds the dataset and measure from the journaled spec, wires the
// journal checkpoint into the cycle, and writes the anonymized CSV next to
// the journal. Errors it cannot classify stay permanent; the risk package's
// transient marks pass through untouched for the manager's retry policy.
type jobRunner struct {
	srv *server
}

// Run implements jobs.Runner.
func (jr *jobRunner) Run(ctx context.Context, id string, spec jobs.Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*jobs.Outcome, error) {
	s := jr.srv
	q := url.Values(spec.Params)
	f, err := s.newFramework()
	if err != nil {
		return nil, err
	}
	if err := s.applyBudget(f, q); err != nil {
		return nil, err
	}
	body, err := os.ReadFile(spec.Dataset)
	if err != nil {
		return nil, fmt.Errorf("reading spooled input: %w", err)
	}
	d, _, err := buildDataset(f, body, q, s.cellCap())
	if err != nil {
		return nil, err
	}
	m, err := s.measureFromValues(q)
	if err != nil {
		return nil, err
	}
	threshold, err := floatValue(q, "threshold", 0.5)
	if err != nil {
		return nil, err
	}
	res, err := f.ResumeAnonymizeContext(ctx, d, vadasa.CycleOptions{
		Measure:     s.distMeasure(m),
		Threshold:   threshold,
		UseRecoding: q.Get("recode") == "true",
		Checkpoint:  checkpoint,
	}, resume)
	if err != nil {
		return nil, err
	}

	outPath := filepath.Join(s.jobDir, id+".out.csv")
	tmp := outPath + ".tmp"
	var sb strings.Builder
	if err := vadasa.WriteCSV(&sb, res.Dataset); err != nil {
		return nil, err
	}
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, outPath); err != nil {
		return nil, err
	}
	return &jobs.Outcome{
		OutputPath:    outPath,
		Iterations:    res.Iterations,
		InitialRisky:  res.InitialRisky,
		EverRisky:     res.EverRisky,
		NullsInjected: res.NullsInjected,
		InfoLoss:      res.InfoLoss,
		Residual:      res.Residual,
		Decisions:     len(res.Decisions),
	}, nil
}
