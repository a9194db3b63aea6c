package main

// End-to-end disk-pressure test for the tentpole: an ENOSPC burst in the
// middle of a job's cycle (injected through the fault filesystem) pauses the
// job at its last journaled checkpoint; when space frees, the manager
// resumes it, and the final output is bit-identical to a run that never saw
// pressure.

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"vadasa"
	"vadasa/internal/faultfs"
	"vadasa/internal/jobs"
	"vadasa/internal/journal"
)

func TestJobPausedByDiskPressureResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	csv := generatedCSV(t)

	// Uninterrupted control via the synchronous endpoint, same measure.
	control := struct {
		CSV           string `json:"csv"`
		Iterations    int    `json:"iterations"`
		NullsInjected int    `json:"nullsInjected"`
	}{}
	rec := do(t, testServer(t), "POST", "/anonymize?measure=k-anonymity&k=3&threshold=0.5", csv)
	if rec.Code != http.StatusOK {
		t.Fatalf("control run = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &control); err != nil {
		t.Fatal(err)
	}
	if control.Iterations < 2 {
		t.Fatalf("control took %d iterations; dataset too easy for a pressure test", control.Iterations)
	}

	// The job runs over the fault filesystem with a 1 MiB headroom floor.
	// The gate parks the cycle inside iteration 1's assessment — after the
	// iteration-0 checkpoint committed — so the ENOSPC burst lands exactly
	// on iteration 1's checkpoint append.
	faulty := faultfs.NewFaulty(faultfs.OS)
	gate := newGateMeasure(2)
	_, h := jobsServer(t, dir, map[string]func() vadasa.RiskMeasure{
		"gate": func() vadasa.RiskMeasure { return gate },
	}, func(c *config) {
		c.jobWorkers = 1
		c.fs = faulty
		c.diskHeadroom = 1 << 20
		c.jobPauseProbe = 2 * time.Millisecond
	})
	rec = do(t, h, "POST", "/jobs/anonymize?measure=gate&threshold=0.5", csv)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	id := decodeJob(t, rec.Body.String()).ID
	select {
	case <-gate.entered:
	case <-time.After(15 * time.Second):
		t.Fatal("cycle never reached the gated assessment")
	}
	faulty.SetFree(100) // the volume "fills up" while the measure runs
	close(gate.release) // let the assessment finish; the checkpoint hits the wall

	paused := waitJob(t, h, id, jobs.StatePaused)
	if paused.Attempts != 0 {
		t.Fatalf("paused job consumed %d attempts; disk pressure must not burn retries", paused.Attempts)
	}

	// The journal holds the committed prefix only — no torn tail, no
	// terminal record — exactly what a crash recovery would also accept.
	jpath := filepath.Join(dir, id+".journal")
	scan, err := readJournal(faulty, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("journal has a torn tail while paused; repair did not run")
	}
	if got := scan.Last().Type; got != journal.TypeIter {
		t.Fatalf("journal last record = %q while paused, want iter", got)
	}

	faulty.SetFree(-1) // space frees; the resume loop re-queues the job
	j := waitJob(t, h, id, jobs.StateDone)
	if j.Attempts != 1 {
		t.Fatalf("resumed job finished with %d attempts, want 1", j.Attempts)
	}
	if j.Outcome == nil {
		t.Fatal("done job has no outcome")
	}
	if j.Outcome.Iterations != control.Iterations {
		t.Fatalf("iterations: resumed %d, control %d", j.Outcome.Iterations, control.Iterations)
	}
	if j.Outcome.NullsInjected != control.NullsInjected {
		t.Fatalf("nulls: resumed %d, control %d", j.Outcome.NullsInjected, control.NullsInjected)
	}

	// Bit-identical output: the pause/resume must be invisible in the data.
	rec = do(t, h, "GET", "/jobs/"+id+"/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", rec.Code, rec.Body)
	}
	if rec.Body.String() != control.CSV {
		t.Fatalf("resumed output differs from the uninterrupted control:\nresumed:\n%s\ncontrol:\n%s",
			rec.Body.String(), control.CSV)
	}
}
