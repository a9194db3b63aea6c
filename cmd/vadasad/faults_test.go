package main

// Fault-injection tests: a blocking measure (honours its context, releases on
// demand) and a panicking measure are registered through server.extraMeasures
// so the tests can hold a request open at a precise point, blow a deadline,
// disconnect a client, fill the in-flight semaphore, or crash a handler —
// and then prove the daemon reacts the way the operational-hardening design
// promises.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vadasa"
)

// blockingMeasure parks inside AssessContext until its context is cancelled
// or the test closes release. Entries and exit errors are reported on
// buffered channels so tests can synchronise without sleeps.
type blockingMeasure struct {
	entered chan struct{}
	release chan struct{}
	got     chan error
}

func newBlockingMeasure() *blockingMeasure {
	return &blockingMeasure{
		entered: make(chan struct{}, 8),
		release: make(chan struct{}),
		got:     make(chan error, 8),
	}
}

func (m *blockingMeasure) Name() string { return "blocking" }

func (m *blockingMeasure) Assess(d *vadasa.Dataset, sem vadasa.Semantics) ([]float64, error) {
	return m.AssessContext(context.Background(), d, sem)
}

func (m *blockingMeasure) AssessContext(ctx context.Context, d *vadasa.Dataset, sem vadasa.Semantics) ([]float64, error) {
	select {
	case m.entered <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		err := fmt.Errorf("blocking measure interrupted: %w", ctx.Err())
		select {
		case m.got <- err:
		default:
		}
		return nil, err
	case <-m.release:
		return make([]float64, len(d.Rows)), nil
	}
}

var _ vadasa.ContextRiskMeasure = (*blockingMeasure)(nil)

// panickyMeasure simulates a buggy plug-in measure.
type panickyMeasure struct{}

func (panickyMeasure) Name() string { return "panicky" }

func (panickyMeasure) Assess(*vadasa.Dataset, vadasa.Semantics) ([]float64, error) {
	panic("injected fault: measure exploded")
}

func faultServer(t *testing.T, measures map[string]func() vadasa.RiskMeasure, mutate func(*config)) (*server, http.Handler) {
	t.Helper()
	cfg := testConfig(t)
	cfg.extraMeasures = measures
	if mutate != nil {
		mutate(&cfg)
	}
	s := startServer(t, cfg)
	return s, s.handler
}

// TestDeadlineExceededMidAssess blows the per-request deadline while the risk
// measure is running and expects a prompt 504 — the request must not keep
// burning CPU until the client gives up.
func TestDeadlineExceededMidAssess(t *testing.T) {
	m := newBlockingMeasure()
	_, h := faultServer(t,
		map[string]func() vadasa.RiskMeasure{"blocking": func() vadasa.RiskMeasure { return m }},
		func(c *config) { c.requestTimeout = 100 * time.Millisecond })

	start := time.Now()
	rec := do(t, h, "POST", "/assess?measure=blocking", figure1CSV(t))
	elapsed := time.Since(start)

	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Fatalf("body = %s, want a deadline hint", rec.Body)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("request took %s; cancellation was not prompt", elapsed)
	}
	select {
	case err := <-m.got:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("measure saw %v, want context.DeadlineExceeded", err)
		}
	default:
		t.Fatal("measure never observed the cancelled context")
	}
}

// TestDeadlineExceededMidAnonymize is the same through the anonymization
// cycle: the context must reach the cycle's assessment step.
func TestDeadlineExceededMidAnonymize(t *testing.T) {
	m := newBlockingMeasure()
	_, h := faultServer(t,
		map[string]func() vadasa.RiskMeasure{"blocking": func() vadasa.RiskMeasure { return m }},
		func(c *config) { c.requestTimeout = 100 * time.Millisecond })

	rec := do(t, h, "POST", "/anonymize?measure=blocking", figure1CSV(t))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body)
	}
	select {
	case err := <-m.got:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("measure saw %v, want context.DeadlineExceeded", err)
		}
	default:
		t.Fatal("the anonymization cycle never handed the context to the measure")
	}
}

// TestClientDisconnectCancelsWork simulates a client hanging up mid-request:
// the handler must unwind promptly (499 in the log), the measure must see
// context.Canceled, and no goroutine may be left behind.
func TestClientDisconnectCancelsWork(t *testing.T) {
	m := newBlockingMeasure()
	_, h := faultServer(t,
		map[string]func() vadasa.RiskMeasure{"blocking": func() vadasa.RiskMeasure { return m }},
		func(c *config) { c.requestTimeout = time.Minute })

	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/assess?measure=blocking", strings.NewReader(figure1CSV(t))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		h.ServeHTTP(rec, req)
		close(done)
	}()

	select {
	case <-m.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("measure never started")
	}
	cancel()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not unwind after the client disconnected")
	}
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status = %d, want %d: %s", rec.Code, statusClientClosedRequest, rec.Body)
	}
	select {
	case err := <-m.got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("measure saw %v, want context.Canceled", err)
		}
	default:
		t.Fatal("measure never observed the cancellation")
	}

	// No goroutine leak: everything spawned for the request must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestOversizedBody413 checks the body cap trips with a clear JSON error.
func TestOversizedBody413(t *testing.T) {
	_, h := faultServer(t, nil, func(c *config) { c.maxBody = 64 })
	rec := do(t, h, "POST", "/assess", figure1CSV(t)) // well over 64 bytes
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "64-byte limit") {
		t.Fatalf("body = %s, want the byte limit spelled out", rec.Body)
	}
}

// TestLoadShedding fills the in-flight semaphore and expects the next request
// to be shed with 429 + Retry-After while the liveness probe stays exempt.
func TestLoadShedding(t *testing.T) {
	m := newBlockingMeasure()
	_, h := faultServer(t,
		map[string]func() vadasa.RiskMeasure{"blocking": func() vadasa.RiskMeasure { return m }},
		func(c *config) {
			c.requestTimeout = time.Minute
			c.maxInflight = 1
		})

	csv := figure1CSV(t)
	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest("POST", "/assess?measure=blocking", strings.NewReader(csv))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		firstDone <- rec
	}()
	select {
	case <-m.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the measure")
	}

	shed := do(t, h, "POST", "/assess", csv)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", shed.Code, shed.Body)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Fatal("shed response is missing Retry-After")
	}
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d while at capacity, want 200", rec.Code)
	}

	close(m.release)
	select {
	case rec := <-firstDone:
		if rec.Code != http.StatusOK {
			t.Fatalf("first request finished with %d: %s", rec.Code, rec.Body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first request never finished after release")
	}

	// The semaphore slot must have been returned.
	if rec := do(t, h, "POST", "/categorize", csv); rec.Code != http.StatusOK {
		t.Fatalf("follow-up request = %d, want 200: %s", rec.Code, rec.Body)
	}
}

// TestPanicRecovery proves one crashing request cannot take the daemon down:
// the panic is answered with a JSON 500 and the next request is served
// normally.
func TestPanicRecovery(t *testing.T) {
	_, h := faultServer(t,
		map[string]func() vadasa.RiskMeasure{"panicky": func() vadasa.RiskMeasure { return panickyMeasure{} }},
		nil)

	rec := do(t, h, "POST", "/assess?measure=panicky", figure1CSV(t))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Fatalf("body = %s, want a generic internal error (no stack leak)", rec.Body)
	}
	if strings.Contains(rec.Body.String(), "exploded") {
		t.Fatalf("body = %s leaks the panic value", rec.Body)
	}

	// The server keeps serving.
	if rec := do(t, h, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", rec.Code)
	}
	if rec := do(t, h, "POST", "/assess", figure1CSV(t)); rec.Code != http.StatusOK {
		t.Fatalf("assess after panic = %d: %s", rec.Code, rec.Body)
	}
}

// TestBudgetParam exercises the per-request reasoning budget: a tiny budget
// must trip the engine's work cap on /explain, and out-of-range values are
// rejected up front. The budget bounds the chase over the tuple's group:
// figure-1 tuple 4 is unique, and its explanation takes 3 match attempts
// however large the table.
func TestBudgetParam(t *testing.T) {
	_, h := faultServer(t, nil, func(c *config) { c.maxBudget = 1000 })
	csv := figure1CSV(t)

	rec := do(t, h, "POST", "/explain?measure=re-identification&tuple=4&budget=2", csv)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("tiny budget: status = %d, want 422: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "work budget") {
		t.Fatalf("tiny budget: body = %s, want the work-budget error", rec.Body)
	}
	unbudgeted := do(t, h, "POST", "/explain?measure=re-identification&tuple=4", csv)
	rec = do(t, h, "POST", "/explain?measure=re-identification&tuple=4&budget=3", csv)
	if rec.Code != http.StatusOK || unbudgeted.Code != http.StatusOK || rec.Body.String() != unbudgeted.Body.String() {
		t.Fatalf("the group's budget: status = %d, body = %s; unbudgeted %d %s",
			rec.Code, rec.Body, unbudgeted.Code, unbudgeted.Body)
	}

	rec = do(t, h, "POST", "/assess?budget=2000", csv)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "ceiling") {
		t.Fatalf("over ceiling: status = %d, body = %s", rec.Code, rec.Body)
	}

	rec = do(t, h, "POST", "/assess?budget=-5", csv)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative budget: status = %d", rec.Code)
	}

	// A generous budget changes nothing.
	rec = do(t, h, "POST", "/assess?budget=999", csv)
	if rec.Code != http.StatusOK {
		t.Fatalf("valid budget: status = %d: %s", rec.Code, rec.Body)
	}
}

// TestHeaderCleanup: a UTF-8 BOM and stray whitespace around header names
// must not break categorization or the schema check.
func TestHeaderCleanup(t *testing.T) {
	csv := figure1CSV(t)
	header, rest, _ := strings.Cut(csv, "\n")
	names := strings.Split(header, ",")
	for i := range names {
		names[i] = " " + names[i] + " "
	}
	dirty := "\ufeff" + strings.Join(names, ",") + "\n" + rest

	rec := do(t, testServer(t), "POST", "/categorize", dirty)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"Id"`) {
		t.Fatalf("body = %s, want the cleaned Id attribute", rec.Body)
	}
}

// TestGracefulShutdownDrains starts the real hardened http.Server, parks a
// request inside a measure, asks for shutdown and proves the in-flight
// request completes with 200 before Shutdown returns.
func TestGracefulShutdownDrains(t *testing.T) {
	m := newBlockingMeasure()
	s, _ := faultServer(t,
		map[string]func() vadasa.RiskMeasure{"blocking": func() vadasa.RiskMeasure { return m }},
		func(c *config) { c.requestTimeout, c.readTimeout = time.Minute, 5*time.Second })

	httpSrv := s.httpServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- httpSrv.Serve(ln) }()

	type result struct {
		status int
		body   string
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/assess?measure=blocking",
			"text/csv", strings.NewReader(figure1CSV(t)))
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: string(body)}
	}()
	select {
	case <-m.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the measure")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	// Give Shutdown a moment to close the listener, then let the parked
	// request finish; it must still be answered.
	time.Sleep(50 * time.Millisecond)
	close(m.release)

	select {
	case res := <-resc:
		if res.err != nil {
			t.Fatalf("in-flight request failed during shutdown: %v", res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("in-flight request = %d during shutdown: %s", res.status, res.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown did not drain cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	if err := <-serveDone; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
