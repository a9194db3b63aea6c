package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"

	"vadasa"
	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/jobs"
)

// handleJobSubmit accepts the same CSV body and query parameters as the
// synchronous /anonymize, but spools the input to the job directory and
// returns 202 with the job id immediately. The cycle runs on the manager's
// worker pool, journaling every iteration; progress survives crashes.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) error {
	// Admission control: while any server budget is saturated or the job
	// volume is below its disk-headroom floor, a new job could only run
	// straight into a pause — refuse it up front so the client retries
	// against a server that can actually make progress. Existing paused
	// jobs keep their claim on the capacity that frees up.
	if err := s.govern.Err(); err != nil {
		return err
	}
	body, err := s.readCharged(w, r)
	if err != nil {
		return badRequest(err)
	}
	// Everything the runner will parse is parsed here first: a malformed
	// request must fail now, with a 400, not as a job three seconds later.
	// The parse is the job's input when a worker is idle to take it.
	f, _, err := s.cycleFromValues(r.URL.Query())
	if err != nil {
		return badRequest(err)
	}
	d, _, err := buildDataset(f, body, r.URL.Query(), s.cfg.maxCells, vadasa.ParseCSV)
	if err != nil {
		return badRequest(err)
	}

	input, err := s.spoolInput(body)
	if err != nil {
		return err
	}
	//conftaint:ok Submit journals the spool's path, never Input (json:"-", cleared before the start record)
	j, err := s.jobs().Submit(jobs.Spec{Dataset: input, Params: r.URL.Query(), Input: d})
	if err != nil {
		s.cfg.fs.Remove(input)
		return err
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	return s.writeJSON(w, http.StatusAccepted, j)
}

// spoolInput persists the uploaded CSV under the job directory so the job —
// and any post-crash resumption — reads the exact bytes the client sent.
func (s *server) spoolInput(body []byte) (string, error) {
	var name [8]byte
	if _, err := rand.Read(name[:]); err != nil {
		return "", fmt.Errorf("spooling input: %w", err)
	}
	path := filepath.Join(s.cfg.jobDir, "input-"+hex.EncodeToString(name[:])+".csv")
	if err := faultfs.WriteFileDurable(s.cfg.fs, path, body); err != nil {
		return "", fmt.Errorf("spooling input: %w", err)
	}
	return path, nil
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) error {
	return s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs().List()})
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs().Get(r.PathValue("id"))
	if err != nil {
		return err
	}
	return s.writeJSON(w, http.StatusOK, j)
}

// handleJobResult streams the anonymized CSV of a finished job. 409 while
// the job is still in flight, 410 when it failed or was cancelled.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) error {
	j, err := s.jobs().Get(r.PathValue("id"))
	if err != nil {
		return err
	}
	switch {
	case !j.State.Terminal():
		return conflict(fmt.Errorf("job %s is %s; poll /jobs/%s", j.ID, j.State, j.ID))
	case j.State != jobs.StateDone || j.Outcome == nil:
		return gone(fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error))
	}
	out, err := os.Open(j.Outcome.OutputPath)
	if err != nil {
		return fmt.Errorf("job output missing: %w", err)
	}
	defer out.Close()
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(w, out); err != nil {
		return fmt.Errorf("streaming job %s result: %w", j.ID, err)
	}
	return nil
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if err := s.jobs().Cancel(id); err != nil {
		return err
	}
	return s.writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "status": "cancelling"})
}

// jobRunner adapts the server's framework plumbing to jobs.Runner: it
// rebuilds the measure from the journaled spec — and the dataset from the
// spool, unless the submission's parse came with it — wires the journal
// checkpoint into the cycle, and streams the anonymized CSV into a file next
// to the journal. Errors it cannot classify stay permanent; the risk package's
// transient marks pass through untouched for the manager's retry policy.
type jobRunner struct {
	srv *server
}

// Run implements jobs.Runner.
func (jr *jobRunner) Run(ctx context.Context, id string, spec jobs.Spec, resume []anon.Checkpoint, checkpoint anon.CheckpointFunc) (*jobs.Outcome, error) {
	s := jr.srv
	q := url.Values(spec.Params)
	f, opts, err := s.cycleFromValues(q)
	if err != nil {
		return nil, err
	}
	d := spec.Input
	if d == nil {
		body, err := s.cfg.fs.ReadFile(spec.Dataset)
		if err != nil {
			return nil, fmt.Errorf("reading spooled input: %w", err)
		}
		if d, _, err = buildDataset(f, body, q, s.cfg.maxCells, vadasa.ParseCSV); err != nil {
			return nil, err
		}
	}
	opts.Checkpoint = checkpoint
	// The attempt's table is its own — the submission hands its parse to one
	// attempt only — so the cycle anonymizes it in place.
	res, err := f.AnonymizeInPlace(ctx, d, opts, resume)
	if err != nil {
		return nil, err
	}

	// The output must be durable before the manager journals the done
	// record that points at it.
	outPath := filepath.Join(s.cfg.jobDir, id+".out.csv")
	if err := faultfs.WriteDurable(s.cfg.fs, outPath, func(w io.Writer) error { return vadasa.WriteCSV(w, res.Dataset) }); err != nil {
		return nil, fmt.Errorf("writing job output: %w", err)
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
