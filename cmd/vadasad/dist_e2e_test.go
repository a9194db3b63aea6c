package main

// End-to-end tests for sharded risk scoring behind the HTTP surface: the
// degraded-mode contract of /readyz and the request path (in-process
// fallback stays bit-identical; -require-workers turns degradation into a
// distinct 503), and the composed chaos run — a job crashed mid-cycle whose
// journal takes a torn tail, recovered by a
// server whose shard workers suffer a SIGKILL mid-task and a duplicated
// delivery, still releasing output bit-identical to the untouched control.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vadasa"
	"vadasa/internal/dist"
	"vadasa/internal/faultfs"
	"vadasa/internal/jobs"
	"vadasa/internal/journal"
)

// workerEnv flips the test binary into a real vadasaw worker process, so the
// worker this package's chaos test SIGKILLs runs exactly the production
// WorkerMain loop.
const workerEnv = "VADASAW_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(dist.WorkerMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func spawnWorker(t *testing.T, args ...string) *dist.Proc {
	t.Helper()
	argv := append([]string{"-addr=127.0.0.1:0", "-quiet"}, args...)
	p, err := dist.Spawn(os.Args[0], argv, []string{workerEnv + "=1"}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Kill() })
	return p
}

// quickSup builds a supervisor with test-speed timings over the given
// transports; the server it is configured into closes it.
func quickSup(t *testing.T, transports []dist.Transport, mutate func(*dist.Options)) *dist.Supervisor {
	t.Helper()
	opts := dist.Options{
		ShardSize:         50,
		LeaseTTL:          2 * time.Second,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		MaxAttempts:       5,
		RetryBase:         5 * time.Millisecond,
		RetryCap:          50 * time.Millisecond,
		Logf:              t.Logf,
	}
	if mutate != nil {
		mutate(&opts)
	}
	sup := dist.NewSupervisor(transports, opts)
	sup.Start()
	return sup
}

type anonResp struct {
	CSV           string `json:"csv"`
	Iterations    int    `json:"iterations"`
	NullsInjected int    `json:"nullsInjected"`
}

func syncAnonymize(t *testing.T, h http.Handler, csv string) anonResp {
	t.Helper()
	return syncAnonymizeBy(t, h, "measure=k-anonymity&k=3", csv)
}

// syncAnonymizeBy is syncAnonymize under the measure the parameters select.
func syncAnonymizeBy(t *testing.T, h http.Handler, measure, csv string) anonResp {
	t.Helper()
	rec := do(t, h, "POST", "/anonymize?"+measure+"&threshold=0.5", csv)
	if rec.Code != http.StatusOK {
		t.Fatalf("anonymize = %d: %s", rec.Code, rec.Body)
	}
	var out anonResp
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// With every worker down and no -require-workers, the server keeps serving:
// /readyz reports degraded with a 200 (load balancers keep routing), the
// anonymization falls back in-process, and the output is bit-identical to a
// server that never had workers configured.
func TestReadyzDegradedInProcessFallback(t *testing.T) {
	// One configured worker that was never started: every probe and call
	// fails, which is exactly the all-workers-down acceptance shape.
	sup := quickSup(t, []dist.Transport{dist.NewHTTPTransport("127.0.0.1:1", nil)}, nil)
	_, h := faultServer(t, nil, func(c *config) { c.supervisor = sup })

	deadline := time.Now().Add(5 * time.Second)
	for !sup.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never noticed the dead worker")
		}
		time.Sleep(10 * time.Millisecond)
	}

	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (degraded is not down): %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("/readyz body does not report degraded: %s", rec.Body)
	}

	csv := generatedCSV(t)
	control := syncAnonymize(t, testServer(t), csv)
	got := syncAnonymize(t, h, csv)
	if got.CSV != control.CSV || got.Iterations != control.Iterations {
		t.Fatalf("degraded in-process result differs from control (iterations %d vs %d)",
			got.Iterations, control.Iterations)
	}
	if sup.Snapshot().LocalFallbacks == 0 {
		t.Fatal("no local fallbacks recorded; the request did not exercise the degraded path")
	}
}

// Under -require-workers, degradation is a hard failure with its own
// signature: /readyz answers 503 with Retry-After, and requests needing
// shard workers fail 503 with Retry-After — distinguishable from the
// resource-saturation 503, which carries a different message.
func TestReadyzRequireWorkers503(t *testing.T) {
	sup := quickSup(t, nil, func(o *dist.Options) { o.RequireWorkers = true })
	_, h := faultServer(t, nil, func(c *config) { c.supervisor = sup })

	rec := do(t, h, "GET", "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503 under -require-workers: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("/readyz 503 without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("/readyz body does not report degraded: %s", rec.Body)
	}

	rec = do(t, h, "POST", "/anonymize?measure=k-anonymity&k=3&threshold=0.5", generatedCSV(t))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("anonymize = %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 without Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "workers") {
		t.Fatalf("degraded 503 not distinguishable from saturation: %s", rec.Body)
	}
}

// The composed chaos run. Phase 1 parks a job inside iteration 1 over the
// fault filesystem and crashes the manager; a torn half-record is then
// planted on the journal tail, the shape an OS crash mid-append leaves
// behind. Phase 2 recovers on a server whose risk scoring is sharded
// across two worker processes — one SIGKILLed while it holds a lease, the
// other duplicating a delivery — and the released output must be
// bit-identical to the uninterrupted, worker-less control — under a measure
// that ships two aggregates per row and under one that ships the sensitive
// column's as well.
func TestChaosTornJournalKilledWorkerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	for _, m := range []struct {
		name, params string
		measure      vadasa.RiskMeasure
	}{
		{"k-anonymity", "measure=k-anonymity&k=3", vadasa.KAnonymity{K: 3}},
		{"l-diversity", "measure=l-diversity&k=3&sensitive=ResidentialRevenue", vadasa.LDiversity{L: 3, Sensitive: "ResidentialRevenue"}},
	} {
		t.Run(m.name, func(t *testing.T) { chaosTornJournalKilledWorker(t, m.params, m.measure) })
	}
}

func chaosTornJournalKilledWorker(t *testing.T, params string, measure vadasa.RiskMeasure) {
	dir := t.TempDir()
	csv := generatedCSV(t)
	control := syncAnonymizeBy(t, testServer(t), params, csv)
	if control.Iterations < 2 {
		t.Fatalf("control took %d iterations; dataset too easy for a chaos test", control.Iterations)
	}

	// Phase 1: run over faultfs, park inside iteration 1's assessment (the
	// iteration-0 checkpoint is committed), crash without a terminal record.
	faulty := faultfs.NewFaulty(faultfs.OS)
	gate := newGateMeasure(2)
	gate.inner = measure
	s1, h1 := jobsServer(t, dir, map[string]func() vadasa.RiskMeasure{
		"gate": func() vadasa.RiskMeasure { return gate },
	}, func(c *config) { c.jobWorkers, c.fs = 1, faulty })
	rec := do(t, h1, "POST", "/jobs/anonymize?measure=gate&threshold=0.5", csv)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	id := decodeJob(t, rec.Body.String()).ID
	select {
	case <-gate.entered:
	case <-time.After(15 * time.Second):
		t.Fatal("cycle never reached the gated assessment")
	}
	s1.jobs().Close()

	// The crash tears a half-written record onto the journal tail: the
	// bytes a power cut mid-append leaves (an Append that merely fails
	// cleans up after itself, so the tail is planted directly).
	jpath := filepath.Join(dir, id+".journal")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":3,"type":"iter","pay`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	scan, err := readJournal(faulty, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn {
		t.Fatal("journal tail is not torn; the fault did not land")
	}

	// Phase 2: recover on a server with sharded scoring. The victim holds
	// every task for 500ms, so the SIGKILL below is guaranteed to land while
	// it owns a lease; the survivor duplicates its second delivery.
	victim := spawnWorker(t, "-hold=500ms")
	ft := dist.NewFaultTransport(spawnWorker(t).Transport())
	ft.DupCall(2)
	sup := quickSup(t, []dist.Transport{victim.Transport(), ft}, nil)

	_, h2 := jobsServer(t, dir, map[string]func() vadasa.RiskMeasure{
		"gate": func() vadasa.RiskMeasure { return measure },
	}, func(c *config) { c.jobWorkers, c.fs, c.supervisor = 1, faulty, sup })
	time.Sleep(250 * time.Millisecond)
	victim.Kill() // SIGKILL mid-task: the 500ms hold keeps its lease in flight

	j := waitJob(t, h2, id, jobs.StateDone)
	if !j.Recovered {
		t.Fatal("job not marked recovered")
	}
	rec = do(t, h2, "GET", "/jobs/"+id+"/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", rec.Code, rec.Body)
	}
	if rec.Body.String() != control.CSV {
		t.Fatal("chaos-recovered output differs from the uninterrupted control")
	}

	// The torn tail must be repaired and the journal terminal.
	scan, err = readJournal(faulty, jpath)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("torn tail survived recovery")
	}
	if scan.Last().Type != journal.TypeDone {
		t.Fatalf("journal last record = %q, want done", scan.Last().Type)
	}

	// The chaos actually happened: the killed worker's in-flight lease was
	// retried, and the duplicated delivery reached the survivor.
	st := sup.Snapshot()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded; the SIGKILL landed after the work was done: %+v", st)
	}
	if ft.Calls() < 2 {
		t.Fatalf("survivor saw %d calls; the duplicated delivery never fired", ft.Calls())
	}
}
