package main

// Tests for the degraded-mode serving surface: the /readyz probe, admission
// control on the job API, the -max-cells decode guard, and the per-request
// memory budget.

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"vadasa/internal/govern"
	"vadasa/internal/jobs"
)

// /readyz answers 503 while startup recovery is replaying job journals and
// flips to 200 when the replay is queued; /healthz reports alive throughout.
func TestReadyzDuringRecovery(t *testing.T) {
	s, h := faultServer(t, nil, nil)
	s.recovering.Store(true)

	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "recovering") {
		t.Fatalf("readyz while recovering = %d %s, want 503/recovering", rec.Code, rec.Body)
	}
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz while recovering = %d, want 200: recovery is not a liveness failure", rec.Code)
	}

	s.recovering.Store(false)
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery = %d %s, want 200", rec.Code, rec.Body)
	}
}

// A saturated governor budget turns /readyz not-ready; freeing it turns the
// server ready again. The probe itself must keep answering while saturated —
// it is exempt from the request resource scope.
func TestReadyzSaturatedGovernor(t *testing.T) {
	s, h := faultServer(t, nil, func(c *config) { c.memBudget = 1000 })
	hog := s.govern.Child("hog", govern.Limits{})
	if err := hog.ReserveBytes(1000); err != nil {
		t.Fatal(err)
	}

	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "saturated") {
		t.Fatalf("readyz while saturated = %d %s, want 503/saturated", rec.Code, rec.Body)
	}

	hog.Close()
	if rec := do(t, h, "GET", "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("readyz after release = %d %s, want 200", rec.Code, rec.Body)
	}
}

// New job submissions are refused with 503 while the server budget is
// saturated, and accepted again once it frees.
func TestJobSubmitRefusedWhileSaturated(t *testing.T) {
	// The budget is the one the job itself will run under once it is admitted.
	const budget = 1 << 20
	s, h := jobsServer(t, t.TempDir(), nil, func(c *config) { c.jobWorkers, c.memBudget = 1, budget })
	hog := s.govern.Child("hog", govern.Limits{})
	if err := hog.ReserveBytes(budget); err != nil {
		t.Fatal(err)
	}

	rec := do(t, h, "POST", "/jobs/anonymize?measure=k-anonymity&k=2", figure1CSV(t))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while saturated = %d %s, want 503", rec.Code, rec.Body)
	}

	hog.Close()
	rec = do(t, h, "POST", "/jobs/anonymize?measure=k-anonymity&k=2", figure1CSV(t))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit after release = %d %s, want 202", rec.Code, rec.Body)
	}
	waitJob(t, h, decodeJob(t, rec.Body.String()).ID, jobs.StateDone)
}

// A job holds its input's text as /anonymize holds its body — the parse
// points into it — so it needs the budget /anonymize needs. One byte under
// that budget, which still holds the working table, /anonymize is refused
// and the job pauses; with the text charged to no scope it used to complete.
// Paused jobs are not resumed here: a resumed cycle starts from its last
// checkpoint, past its first peak.
func TestJobChargesItsInputText(t *testing.T) {
	const total = 1 << 30
	const q = "measure=k-anonymity&k=3&threshold=0.5"
	body := generatedCSV(t)
	s, h := jobsServer(t, t.TempDir(), nil, func(c *config) {
		c.jobWorkers, c.memBudget, c.jobPauseProbe = 1, total, time.Hour
	})
	// under runs fn with the server's budget cut to b: a hog holds the rest.
	under := func(b int64, fn func()) {
		hog := s.govern.Child("hog", govern.Limits{})
		defer hog.Close()
		if err := hog.ReserveBytes(total - b); err != nil {
			t.Fatal(err)
		}
		fn()
	}
	// need: the least budget /anonymize answers 200 under.
	lo, need := int64(len(body)), int64(1<<24)
	for lo+1 < need {
		mid := (lo + need) / 2
		under(mid, func() {
			if do(t, h, "POST", "/anonymize?"+q, body).Code == http.StatusOK {
				need = mid
			} else {
				lo = mid
			}
		})
	}
	submit := func() string {
		rec := do(t, h, "POST", "/jobs/anonymize?"+q, body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d %s, want 202", rec.Code, rec.Body)
		}
		return decodeJob(t, rec.Body.String()).ID
	}
	under(need-1, func() {
		id := submit()
		waitJob(t, h, id, jobs.StatePaused)
		if rec := do(t, h, "POST", "/jobs/"+id+"/cancel", ""); rec.Code != http.StatusAccepted {
			t.Fatalf("cancel = %d %s", rec.Code, rec.Body)
		}
		waitJob(t, h, id, jobs.StateCancelled)
	})
	// The submission's own scope holds the body until its reply is out,
	// which the attempt may overlap.
	under(need+int64(len(body)), func() { waitJob(t, h, submit(), jobs.StateDone) })
}

// A CSV whose rows×columns product exceeds -max-cells is refused with 413
// before any categorization or parsing work, on both the synchronous and
// the job submission paths.
func TestMaxCellsGuard(t *testing.T) {
	_, h := faultServer(t, nil, func(c *config) { c.maxCells = 4 })
	rec := do(t, h, "POST", "/assess", figure1CSV(t))
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "cell") {
		t.Fatalf("oversized table = %d %s, want 413 naming the cell limit", rec.Code, rec.Body)
	}
	// Within the limit, the same body is served normally.
	_, h = faultServer(t, nil, func(c *config) { c.maxCells = 1 << 20 })
	if rec := do(t, h, "POST", "/assess", figure1CSV(t)); rec.Code != http.StatusOK {
		t.Fatalf("within limit = %d %s, want 200", rec.Code, rec.Body)
	}

	_, jh := jobsServer(t, t.TempDir(), nil, func(c *config) { c.jobWorkers, c.maxCells = 1, 4 })
	if rec := do(t, jh, "POST", "/jobs/anonymize", figure1CSV(t)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job submit = %d %s, want 413", rec.Code, rec.Body)
	}
}

// A request whose body alone overruns the memory budget answers 503 — the
// charge happens before any engine work — and the budget is refunded when
// the request scope closes, so a later small request succeeds.
func TestRequestMemoryBudget(t *testing.T) {
	s, h := faultServer(t, nil, func(c *config) { c.memBudget = 16 })
	root := s.govern
	rec := do(t, h, "POST", "/assess", figure1CSV(t)) // body is > 16 bytes
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-budget request = %d %s, want 503", rec.Code, rec.Body)
	}
	if used := root.Used(); used != 0 {
		t.Fatalf("governor holds %d bytes after the request; scope not closed", used)
	}
}
