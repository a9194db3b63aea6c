package main

// End-to-end tests for the durable job API: a cycle killed mid-iteration is
// resumed from its journal and produces output identical to an uninterrupted
// run; transient assessor failures retry with backoff; permanent ones fail
// the job with the typed error visible in the status endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vadasa"
	"vadasa/internal/faultfs"
	"vadasa/internal/jobs"
	"vadasa/internal/journal"
	"vadasa/internal/risk"
)

// jobsServer builds a server with the asynchronous job API enabled over dir
// and test-speed retry delays. Like a daemon starting over dir, it recovers
// the jobs journaled there in the background.
func jobsServer(t testing.TB, dir string, measures map[string]func() vadasa.RiskMeasure, mutate func(*config)) (*server, http.Handler) {
	t.Helper()
	cfg := testConfig(t)
	cfg.extraMeasures = measures
	cfg.jobDir = dir
	cfg.jobRetryBase, cfg.jobRetryCap = time.Millisecond, 4*time.Millisecond
	if mutate != nil {
		mutate(&cfg)
	}
	s := startServer(t, cfg)
	// The tests submit once start-up recovery is through, so what they
	// find in the job dir is theirs alone (a Submit racing it is safe:
	// TestSubmitDuringRecoveryIsNotAdopted in internal/jobs).
	<-s.writePath.Load().jobsRecovered
	return s, s.handler
}

func oneWorker(c *config) { c.jobWorkers = 1 }

// generatedCSV is an unbalanced dataset whose k-anonymization takes several
// iterations — enough journal records for a mid-run crash to be interesting.
func generatedCSV(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	d := vadasa.Generate(vadasa.GeneratorConfig{Tuples: 300, QIs: 4, Dist: vadasa.DistU, Seed: 23})
	if err := vadasa.WriteCSV(&b, d); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// decodeJob parses a job-status response body.
func decodeJob(t *testing.T, body string) jobs.Job {
	t.Helper()
	var j jobs.Job
	if err := json.Unmarshal([]byte(body), &j); err != nil {
		t.Fatalf("decoding job %q: %v", body, err)
	}
	return j
}

// waitJob polls the status endpoint until the job reaches want.
func waitJob(t *testing.T, h http.Handler, id string, want jobs.State) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(t, h, "GET", "/jobs/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status endpoint = %d: %s", rec.Code, rec.Body)
		}
		j := decodeJob(t, rec.Body.String())
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job settled at %s (%q), want %s", j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobs.Job{}
}

// gateMeasure wraps k-anonymity and blocks at the blockAt-th assessment
// until released or cancelled — the hook that parks a cycle mid-iteration so
// a test can kill the manager at a precise point.
type gateMeasure struct {
	inner   vadasa.RiskMeasure
	blockAt int
	entered chan struct{}
	release chan struct{}

	mu    sync.Mutex
	calls int
}

func newGateMeasure(blockAt int) *gateMeasure {
	return &gateMeasure{
		inner:   vadasa.KAnonymity{K: 3},
		blockAt: blockAt,
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
	}
}

func (g *gateMeasure) Name() string { return "gate" }

func (g *gateMeasure) Assess(d *vadasa.Dataset, sem vadasa.Semantics) ([]float64, error) {
	return g.AssessContext(context.Background(), d, sem)
}

func (g *gateMeasure) AssessContext(ctx context.Context, d *vadasa.Dataset, sem vadasa.Semantics) ([]float64, error) {
	g.mu.Lock()
	g.calls++
	n := g.calls
	g.mu.Unlock()
	if g.blockAt > 0 && n >= g.blockAt {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-g.release:
		}
	}
	return g.inner.Assess(d, sem)
}

var _ vadasa.ContextRiskMeasure = (*gateMeasure)(nil)

// flakyMeasure fails its first `failures` assessments with a transient error
// — a remote assessor hiccuping — then behaves like k-anonymity.
type flakyMeasure struct {
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flakyMeasure) Name() string { return "flaky" }

func (f *flakyMeasure) Assess(d *vadasa.Dataset, sem vadasa.Semantics) ([]float64, error) {
	f.mu.Lock()
	f.calls++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, risk.MarkTransient(errors.New("injected assessor outage"))
	}
	return vadasa.KAnonymity{K: 2}.Assess(d, sem)
}

// brokenMeasure always fails with an unmarked (permanent) error.
type brokenMeasure struct {
	mu    sync.Mutex
	calls int
}

func (b *brokenMeasure) Name() string { return "broken" }

func (b *brokenMeasure) Assess(d *vadasa.Dataset, sem vadasa.Semantics) ([]float64, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	return nil, errors.New("schema mismatch: no quasi-identifiers")
}

// TestJobCrashRecoveryIdenticalToUninterruptedRun is the acceptance test for
// the tentpole: a job killed mid-iteration (manager closed while the measure
// is parked inside an assessment) is resumed by a fresh manager over the
// same journal directory and must produce an anonymized dataset and decision
// count identical to a run that was never interrupted.
func TestJobCrashRecoveryIdenticalToUninterruptedRun(t *testing.T) {
	dir := t.TempDir()
	csv := generatedCSV(t)

	// Uninterrupted control via the synchronous endpoint, same measure.
	control := struct {
		CSV           string   `json:"csv"`
		Iterations    int      `json:"iterations"`
		NullsInjected int      `json:"nullsInjected"`
		InfoLoss      float64  `json:"infoLoss"`
		Decisions     []string `json:"decisions"`
	}{}
	rec := do(t, testServer(t), "POST", "/anonymize?measure=k-anonymity&k=3&threshold=0.5", csv)
	if rec.Code != http.StatusOK {
		t.Fatalf("control run = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &control); err != nil {
		t.Fatal(err)
	}
	if control.Iterations < 2 {
		t.Fatalf("control took %d iterations; dataset too easy for a crash test", control.Iterations)
	}

	// Phase 1: run the job, park it inside iteration 1's assessment (the
	// iteration-0 checkpoint is already journaled), and "crash".
	gate := newGateMeasure(2)
	s1, h1 := jobsServer(t, dir, map[string]func() vadasa.RiskMeasure{
		"gate": func() vadasa.RiskMeasure { return gate },
	}, oneWorker)
	rec = do(t, h1, "POST", "/jobs/anonymize?measure=gate&threshold=0.5", csv)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	id := decodeJob(t, rec.Body.String()).ID
	select {
	case <-gate.entered:
	case <-time.After(15 * time.Second):
		t.Fatal("cycle never reached the gated assessment")
	}
	s1.jobs().Close() // simulated crash: no terminal record may be written

	jpath := filepath.Join(dir, id+".journal")
	scan, err := readJournal(nil, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Last().Type == journal.TypeDone {
		t.Fatal("crashed job has a terminal record")
	}
	committed := 0
	for _, r := range scan.Records {
		if r.Type == journal.TypeIter {
			committed++
		}
	}
	if committed < 1 {
		t.Fatalf("no iteration committed before the crash; gate fired too early")
	}

	// Phase 2: fresh server over the same directory; the gate no longer
	// blocks. Recovery must resume from the journal, not restart.
	reads := &countingFS{FS: faultfs.OS}
	_, h2 := jobsServer(t, dir, map[string]func() vadasa.RiskMeasure{
		"gate": func() vadasa.RiskMeasure { return newGateMeasure(0) },
	}, func(c *config) { c.jobWorkers, c.fs = 1, reads })
	j := waitJob(t, h2, id, jobs.StateDone)
	if !j.Recovered {
		t.Fatal("job not marked recovered")
	}
	// A resumed job has no submitter's parse: recovery digests the spool
	// and the runner parses it.
	if n := reads.spoolReads(); n != 2 {
		t.Fatalf("the resumed job read its spool %d times, want 2: the digest and the parse", n)
	}
	if j.Outcome == nil {
		t.Fatal("done job has no outcome")
	}

	// The resumed run must be indistinguishable from the control.
	if j.Outcome.Iterations != control.Iterations {
		t.Fatalf("iterations: resumed %d, control %d", j.Outcome.Iterations, control.Iterations)
	}
	if j.Outcome.NullsInjected != control.NullsInjected {
		t.Fatalf("nulls: resumed %d, control %d", j.Outcome.NullsInjected, control.NullsInjected)
	}
	if j.Outcome.InfoLoss != control.InfoLoss {
		t.Fatalf("info loss: resumed %g, control %g", j.Outcome.InfoLoss, control.InfoLoss)
	}
	if j.Outcome.Decisions != len(control.Decisions) {
		t.Fatalf("decisions: resumed %d, control %d", j.Outcome.Decisions, len(control.Decisions))
	}
	rec = do(t, h2, "GET", "/jobs/"+id+"/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", rec.Code, rec.Body)
	}
	if rec.Body.String() != control.CSV {
		t.Fatal("resumed job's CSV differs from the uninterrupted control run")
	}

	// The journal must now be terminal, with the total iteration count split
	// across the two processes — no re-journaled duplicates.
	scan, err = readJournal(nil, jpath)
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, r := range scan.Records {
		if r.Type == journal.TypeIter {
			iters++
		}
	}
	if scan.Last().Type != journal.TypeDone || iters != control.Iterations {
		t.Fatalf("final journal: last=%q, %d iter records, want done/%d", scan.Last().Type, iters, control.Iterations)
	}
}

// countingFS counts the reads of each job's spooled input, Open and ReadFile
// alike.
type countingFS struct {
	faultfs.FS
	mu    sync.Mutex
	reads int
}

func (c *countingFS) count(name string) {
	if strings.HasPrefix(filepath.Base(name), "input-") {
		c.mu.Lock()
		c.reads++
		c.mu.Unlock()
	}
}

func (c *countingFS) Open(name string) (faultfs.File, error) {
	c.count(name)
	return c.FS.Open(name)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.count(name)
	return c.FS.ReadFile(name)
}

func (c *countingFS) spoolReads() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// waitWorkersIdle returns once every worker of m waits for work. It reads the
// goroutine dump rather than sleeping: a worker parked in its select is
// already registered to take the next submission.
func waitWorkersIdle(t *testing.T, m *jobs.Manager, n int) {
	t.Helper()
	frame := fmt.Sprintf("(*Manager).worker(%p", m)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		idle := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, frame) && !strings.Contains(g, "(*Manager).execute") {
				idle++
			}
		}
		if idle >= n {
			return
		}
	}
	t.Fatalf("fewer than %d job workers ever waited for work", n)
}

// A job an idle worker takes runs on the submission's parse: its spool is
// read once, for the digest, and never by the runner. Its release is the
// synchronous endpoint's.
func TestIdleWorkerJobReadsSpoolOnce(t *testing.T) {
	csv := generatedCSV(t)
	const q = "measure=k-anonymity&k=3&threshold=0.5"
	control := do(t, testServer(t), "POST", "/anonymize?"+q, csv)
	var want struct {
		CSV string `json:"csv"`
	}
	if err := json.Unmarshal(control.Body.Bytes(), &want); control.Code != http.StatusOK || err != nil {
		t.Fatalf("control run = %d (%v): %s", control.Code, err, control.Body)
	}

	reads := &countingFS{FS: faultfs.OS}
	s, h := jobsServer(t, t.TempDir(), nil, func(c *config) { c.jobWorkers, c.fs = 1, reads })
	waitWorkersIdle(t, s.jobs(), 1)
	rec := do(t, h, "POST", "/jobs/anonymize?"+q, csv)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	id := decodeJob(t, rec.Body.String()).ID
	waitJob(t, h, id, jobs.StateDone)
	if n := reads.spoolReads(); n != 1 {
		t.Fatalf("the job read its spool %d times, want once: the digest", n)
	}
	if rec = do(t, h, "GET", "/jobs/"+id+"/result", ""); rec.Code != http.StatusOK || rec.Body.String() != want.CSV {
		t.Fatalf("result = %d; equal to the synchronous release: %v", rec.Code, rec.Body.String() == want.CSV)
	}
}

// TestJobTransientFailureRetriesAndCompletes: an injected transient assessor
// outage must be retried with backoff and the job must still complete.
func TestJobTransientFailureRetriesAndCompletes(t *testing.T) {
	flaky := &flakyMeasure{failures: 2}
	_, h := jobsServer(t, t.TempDir(), map[string]func() vadasa.RiskMeasure{
		"flaky": func() vadasa.RiskMeasure { return flaky },
	}, func(c *config) { c.jobRetries = 5 })
	rec := do(t, h, "POST", "/jobs/anonymize?measure=flaky&threshold=0.5", figure1CSV(t))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	j := waitJob(t, h, decodeJob(t, rec.Body.String()).ID, jobs.StateDone)
	if j.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two transient failures + success)", j.Attempts)
	}
	if j.Outcome == nil {
		t.Fatal("retried job has no outcome")
	}
}

// TestJobPermanentFailureNoRetry: a permanent failure must fail the job on
// the first attempt with the error visible in the status endpoint.
func TestJobPermanentFailureNoRetry(t *testing.T) {
	broken := &brokenMeasure{}
	_, h := jobsServer(t, t.TempDir(), map[string]func() vadasa.RiskMeasure{
		"broken": func() vadasa.RiskMeasure { return broken },
	}, func(c *config) { c.jobRetries = 5 })
	rec := do(t, h, "POST", "/jobs/anonymize?measure=broken", figure1CSV(t))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	id := decodeJob(t, rec.Body.String()).ID
	j := waitJob(t, h, id, jobs.StateFailed)
	if j.Attempts != 1 {
		t.Fatalf("permanent failure burned %d attempts", j.Attempts)
	}
	if !strings.Contains(j.Error, "schema mismatch") {
		t.Fatalf("status error = %q", j.Error)
	}
	broken.mu.Lock()
	if broken.calls != 1 {
		t.Fatalf("measure ran %d times", broken.calls)
	}
	broken.mu.Unlock()
	// The result endpoint reports the failure, not a CSV.
	rec = do(t, h, "GET", "/jobs/"+id+"/result", "")
	if rec.Code != http.StatusGone {
		t.Fatalf("result of failed job = %d, want 410: %s", rec.Code, rec.Body)
	}
}

// TestJobEndpointsValidation covers the small contract points: submit
// validation, unknown ids, result-while-running, cancellation.
func TestJobEndpointsValidation(t *testing.T) {
	gate := newGateMeasure(1)
	dir := t.TempDir()
	_, h := jobsServer(t, dir, map[string]func() vadasa.RiskMeasure{
		"gate": func() vadasa.RiskMeasure { return gate },
	}, oneWorker)

	if rec := do(t, h, "POST", "/jobs/anonymize?measure=nope", figure1CSV(t)); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown measure = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/jobs/anonymize", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty body = %d: %s", rec.Code, rec.Body)
	}
	// What /anonymize refuses, submission refuses — the same way, and before
	// anything is spooled or journaled: no dead job is left behind.
	for _, params := range []string{"threshold=abc", "threshold=NaN", "budget=abc", "budget=-1"} {
		sync := do(t, h, "POST", "/anonymize?measure=k-anonymity&k=3&"+params, figure1CSV(t))
		rec := do(t, h, "POST", "/jobs/anonymize?measure=k-anonymity&k=3&"+params, figure1CSV(t))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != sync.Body.String() {
			t.Fatalf("submit with %s = %d %s, /anonymize answers %d %s", params, rec.Code, rec.Body, sync.Code, sync.Body)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) > 0 {
		t.Fatalf("refused submissions left %v under -job-dir", left)
	}
	if rec := do(t, h, "GET", "/jobs", ""); strings.TrimSpace(rec.Body.String()) != `{"jobs":[]}` {
		t.Fatalf("refused submissions left jobs behind: %s", rec.Body)
	}
	if rec := do(t, h, "GET", "/jobs/deadbeef", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/jobs/deadbeef/cancel", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("cancel unknown id = %d", rec.Code)
	}

	rec := do(t, h, "POST", "/jobs/anonymize?measure=gate", figure1CSV(t))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	id := decodeJob(t, rec.Body.String()).ID
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	if rec := do(t, h, "GET", "/jobs/"+id+"/result", ""); rec.Code != http.StatusConflict {
		t.Fatalf("result while running = %d, want 409: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/jobs", ""); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), id) {
		t.Fatalf("list = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, h, "POST", "/jobs/"+id+"/cancel", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel = %d: %s", rec.Code, rec.Body)
	}
	j := waitJob(t, h, id, jobs.StateCancelled)
	if j.Outcome != nil {
		t.Fatal("cancelled job has an outcome")
	}
	if rec := do(t, h, "POST", "/jobs/"+id+"/cancel", ""); rec.Code != http.StatusConflict {
		t.Fatalf("second cancel = %d, want 409", rec.Code)
	}
}

// TestAssessTooManyAttributes422: the SUDA attribute ceiling surfaces as a
// typed error mapped to 422 — the request is well-formed, the data just
// cannot be evaluated combinatorially.
func TestAssessTooManyAttributes422(t *testing.T) {
	var header []string
	var row []string
	for i := 0; i < 31; i++ {
		header = append(header, fmt.Sprintf("Q%d", i))
		row = append(row, "x")
	}
	csv := strings.Join(header, ",") + "\n" + strings.Join(row, ",") + "\n"
	target := "/assess?measure=suda&qi=" + strings.Join(header, ",")
	rec := do(t, testServer(t), "POST", target, csv)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "at most 30 attributes") {
		t.Fatalf("body = %s, want the attribute-limit error", rec.Body)
	}
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
