package main

// Tests of the serving skeleton itself: the failure table, the route table,
// the flag set, and the bugs the tables fix by construction.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"vadasa/internal/dist"
	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/jobs"
	"vadasa/internal/replica"
	"vadasa/internal/risk"
	"vadasa/internal/stream"
)

// Every load-shedding and unavailability answer must carry a Retry-After
// header and the uniform {"error": ...} JSON body, so one generic client
// backoff loop handles saturation, disk pressure, replication fencing and
// standby redirection alike. The audit ranges over the failure table itself:
// one synthetic error per row through the single fail. A row added without a
// sample here fails the test.
func TestFailureTableAudit(t *testing.T) {
	wrapped := func(err error) error { return fmt.Errorf("while serving: %w", err) }
	samples := map[string]error{
		"shipment or promotion under a stale epoch":    &replCallError{&replica.FencedError{Epoch: 1, Seen: 2}},
		"shipment the standby could not apply":         &replCallError{errors.New("standby is closed")},
		"request an unpromoted standby does not serve": errStandby,
		"write on a demoted primary":                   wrapped(&replica.FencedError{Epoch: 1, Seen: 2}),
		"synchronous replication timed out":            wrapped(&replica.SyncError{Log: "stream/s1", Seq: 3}),
		"load shed (-max-inflight)":                    wrapped(errAtCapacity),
		"stream window full":                           wrapped(&stream.WindowFullError{Rows: 10, Adding: 2, Max: 10}),
		"release pending publication":                  wrapped(&stream.PendingReleaseError{Release: 2}),
		"release gate closed":                          wrapped(&stream.GateClosedError{Residual: 3}),
		"stream draining":                              wrapped(stream.ErrClosed),
		"unknown job":                                  wrapped(jobs.ErrNotFound),
		"job already finished":                         wrapped(jobs.ErrTerminal),
		"job queue full or manager closing":            wrapped(jobs.ErrQueueFull),
		"request body over the byte cap":               wrapped(&http.MaxBytesError{Limit: 64}),
		"dataset over -max-cells":                      wrapped(&cellLimitError{rows: 5, cols: 2, limit: 4}),
		"quasi-identifier set over a measure's limit":  wrapped(&risk.ErrTooManyAttributes{Count: 31, Max: 30}),
		"shard workers down under -require-workers":    wrapped(dist.ErrDegraded),
		"journal volume full or below -disk-headroom":  wrapped(syscall.ENOSPC),
		"resource budget exhausted (-mem-budget)":      wrapped(&govern.ErrBudgetExceeded{}),
		"request deadline passed (-request-timeout)":   wrapped(context.DeadlineExceeded),
		"client went away":                             wrapped(context.Canceled),
	}

	srv := startServer(t, testConfig(t))
	req := httptest.NewRequest("POST", "/anything", nil)
	for i, row := range failures {
		t.Run(row.cause, func(t *testing.T) {
			sample, ok := samples[row.cause]
			if !ok {
				t.Fatalf("no sample error for this row; add one")
			}
			for _, earlier := range failures[:i] {
				if earlier.match(sample) {
					t.Fatalf("row %q claims the sample first", earlier.cause)
				}
			}
			// The handler's own classification never outranks the table.
			rec := httptest.NewRecorder()
			srv.fail(rec, req, badRequest(sample))
			if rec.Code != row.status {
				t.Fatalf("status = %d, want %d (%s)", rec.Code, row.status, rec.Body)
			}
			if got := rec.Header().Get("Retry-After"); got != row.retryAfter {
				t.Fatalf("Retry-After = %q, want %q", got, row.retryAfter)
			}
			if (row.status == http.StatusTooManyRequests || row.status == http.StatusServiceUnavailable) && row.retryAfter == "" {
				t.Fatalf("a %d row must tell the client when to retry", row.status)
			}
			var body struct {
				Error string `json:"error"`
			}
			decodeBody(t, rec.Body.Bytes(), &body)
			if body.Error == "" || !strings.Contains(body.Error, row.hint) || !strings.Contains(body.Error, sample.Error()) {
				t.Fatalf("body %q must hold the hint %q and the cause %q", body.Error, row.hint, sample)
			}
		})
	}

	// Outside the table: the handler's status, or 500; extra fields ride along.
	rec := httptest.NewRecorder()
	srv.fail(rec, req, &statusError{status: http.StatusGone, err: errors.New("gone"), fields: map[string]any{"why": "test"}})
	if rec.Code != http.StatusGone || rec.Body.String() != `{"error":"gone","why":"test"}`+"\n" {
		t.Fatalf("statusError answered %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.fail(rec, req, errors.New("boom"))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"boom"}`+"\n" {
		t.Fatalf("plain error answered %d %s", rec.Code, rec.Body)
	}
}

// answer classifies what a node did with a request to one route.
type answer string

const (
	absent  answer = "404, as if unregistered"
	refused answer = "standby marker"
	served  answer = "served"
)

func classify(rec *httptest.ResponseRecorder) answer {
	switch {
	case rec.Code == http.StatusNotFound && !strings.Contains(rec.Header().Get("Content-Type"), "json"):
		return absent
	case rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), `"standby":true`) &&
		strings.Contains(rec.Body.String(), "send writes to the primary"):
		return refused
	}
	return served
}

// request builds an (empty) request that the mux routes to the row.
func (rt route) request() *http.Request {
	method, path, _ := strings.Cut(rt.pattern, " ")
	return httptest.NewRequest(method, strings.ReplaceAll(path, "{id}", "x"), nil)
}

// The route table against a server in each state: which rows are absent,
// which are refused with the standby marker, which are served.
func TestRouteTableByState(t *testing.T) {
	with := func(mutate func(*config)) *server {
		cfg := testConfig(t)
		mutate(&cfg)
		return startServer(t, cfg)
	}
	standby := with(func(c *config) { c.replRole, c.streamDir = "standby", t.TempDir() })
	states := []struct {
		name       string
		srv        *server
		has        map[feature]bool
		unpromoted bool
	}{
		{name: "plain", srv: with(func(c *config) {})},
		{name: "jobs", srv: with(func(c *config) { c.jobDir = t.TempDir() }), has: map[feature]bool{jobsAPI: true}},
		{name: "streams", srv: with(func(c *config) { c.streamDir = t.TempDir() }), has: map[feature]bool{streamsAPI: true}},
		{name: "primary", has: map[feature]bool{streamsAPI: true, replication: true},
			srv: with(func(c *config) {
				c.replRole, c.replPeers, c.streamDir = "primary", "http://127.0.0.1:1", t.TempDir()
			})},
		{name: "unpromoted standby", srv: standby, unpromoted: true,
			has: map[feature]bool{streamsAPI: true, replication: true, standbyNode: true}},
		// Promoted by the previous state's last request.
		{name: "promoted standby", srv: standby,
			has: map[feature]bool{streamsAPI: true, replication: true, standbyNode: true}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			got := map[string]answer{}
			var promote *route
			for i := range routes {
				rt := &routes[i]
				if st.unpromoted && rt.pattern == "POST /repl/promote" {
					promote = rt // last, or the rest would run against a promoted node
					continue
				}
				rec := httptest.NewRecorder()
				st.srv.handler.ServeHTTP(rec, rt.request())
				got[rt.pattern] = classify(rec)
				want := served
				switch {
				case rt.needs != always && !st.has[rt.needs]:
					want = absent
				case st.unpromoted && rt.standby == nil:
					want = refused
				}
				if got[rt.pattern] != want {
					t.Errorf("%s: %s (%d %s), want %s", rt.pattern, got[rt.pattern], rec.Code, rec.Body, want)
				}
			}
			if promote != nil {
				rec := httptest.NewRecorder()
				st.srv.handler.ServeHTTP(rec, promote.request())
				if rec.Code != http.StatusOK {
					t.Fatalf("promote = %d %s", rec.Code, rec.Body)
				}
			}
			// Pins that do not come from the table's own columns.
			pins := map[string]answer{"GET /healthz": served, "POST /assess": served, "GET /jobs": absent, "POST /repl/ship": absent}
			switch st.name {
			case "jobs":
				pins["GET /jobs"] = served
			case "unpromoted standby":
				pins["POST /assess"], pins["POST /stream/{id}/append"] = refused, refused
				pins["GET /stream/{id}/status"], pins["GET /stream/{id}/release"], pins["POST /repl/ship"] = served, served, served
			case "promoted standby":
				pins["POST /stream/{id}/append"], pins["POST /repl/ship"] = served, served
			}
			for pattern, want := range pins {
				if got[pattern] != want {
					t.Errorf("pinned %s: %s, want %s", pattern, got[pattern], want)
				}
			}
		})
	}
}

// Probes answer while everything else is shed: with every -max-inflight slot
// taken and the governor saturated, exactly the probe rows still reach their
// handlers.
func TestProbesBypassSheddingAndGovernor(t *testing.T) {
	cfg := testConfig(t)
	cfg.maxInflight, cfg.memBudget = 1, 1000
	srv := startServer(t, cfg)
	srv.inflight <- struct{}{}
	hog := srv.govern.Child("hog", govern.Limits{})
	defer hog.Close()
	if err := hog.ReserveBytes(1000); err != nil {
		t.Fatal(err)
	}
	for _, rt := range routes {
		if rt.needs != always {
			continue
		}
		rec := httptest.NewRecorder()
		srv.handler.ServeHTTP(rec, rt.request())
		shed := rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "1"
		if shed == rt.probe {
			t.Errorf("%s (probe=%v) answered %d %s", rt.pattern, rt.probe, rec.Code, rec.Body)
		}
	}
	if rec := do(t, srv.handler, "GET", "/readyz", ""); rec.Code != http.StatusServiceUnavailable ||
		rec.Header().Get("Retry-After") != "15" || !strings.Contains(rec.Body.String(), "saturated") {
		t.Fatalf("saturated readyz = %d %s", rec.Code, rec.Body)
	}
}

// Errors are answered in one place: outside fail and the readiness probe no
// code sets Retry-After or writes a status other than a success.
func TestOneFailurePath(t *testing.T) {
	allowed := map[string]bool{"fail": true, "handleReadyz": true, "writeJSON": true, "WriteHeader": true}
	success := map[string]bool{"StatusOK": true, "StatusCreated": true, "StatusAccepted": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && allowed[fn.Name.Name] {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if n.Value == `"Retry-After"` {
						t.Errorf("%s: Retry-After set outside fail and /readyz", fset.Position(n.Pos()))
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "writeJSON" && sel.Sel.Name != "WriteHeader") {
						break
					}
					status, ok := n.Args[len(n.Args)/2].(*ast.SelectorExpr) // writeJSON(w, status, v), WriteHeader(status)
					if !ok || !success[status.Sel.Name] {
						t.Errorf("%s: a status other than a success written outside fail and /readyz", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}

// The flag set is the daemon's operator interface and what the benchmark
// boots it with: names and defaults are pinned.
func TestFlagSet(t *testing.T) {
	want := strings.Fields(`addr=:8321 disk-headroom=0 hedge-after=0s job-dir= job-retries=3
		job-retry-base=100ms job-retry-cap=5s job-workers=2 kb= lease-ttl=10s max-budget=1000000000
		max-cells=10000000 max-inflight=64 mem-budget=0 pprof-addr= read-timeout=10s repl-lag-max=0
		repl-peers= repl-role= repl-sync=false request-timeout=30s require-workers=false shard-workers=
		shutdown-grace=10s spawn-workers=0 stream-dir= stream-max-rows=0 worker-bin= worker-heartbeat=2s`)
	fs := flag.NewFlagSet("vadasad", flag.ContinueOnError)
	bindFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flags:\n got %v\nwant %v", got, want)
	}
}

// An oversized withdraw body is a 413 like on every other endpoint, not a 400
// "bad JSON".
func TestStreamWithdrawOversizedBody413(t *testing.T) {
	cfg := testConfig(t)
	cfg.streamDir, cfg.maxBody = t.TempDir(), 256
	h := startServer(t, cfg).handler
	if rec := do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	body := `{"rowIds":[` + strings.Repeat("1000000,", 64) + `1]}`
	rec := do(t, h, "POST", "/stream/s1/withdraw", body)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "256-byte limit") {
		t.Fatalf("oversized withdraw = %d %s, want 413 naming the limit", rec.Code, rec.Body)
	}
}

// A job whose start record cannot be journaled because the volume is full is
// not "queue full": the client is told the disk is out of space and to come
// back later than a queue would need.
func TestJobSubmitENOSPCSaysOutOfSpace(t *testing.T) {
	faulty := faultfs.NewFaulty(faultfs.OS)
	dir := t.TempDir()
	_, h := jobsServer(t, dir, nil, func(c *config) { c.fs = faulty })
	csv := figure1CSV(t)

	faulty.LimitWrites(int64(len(csv))) // the spooled input fits; the start record does not
	rec := do(t, h, "POST", "/jobs/anonymize?measure=k-anonymity&k=2", csv)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "15" ||
		!strings.Contains(rec.Body.String(), "out of space") {
		t.Fatalf("submit on a full volume = %d, Retry-After %q: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "input-*")); len(left) != 0 {
		t.Fatalf("refused submit left its spooled input behind: %v", left)
	}

	faulty.Unlimit()
	rec = do(t, h, "POST", "/jobs/anonymize?measure=k-anonymity&k=2", csv)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit after space freed = %d: %s", rec.Code, rec.Body)
	}
	waitJob(t, h, decodeJob(t, rec.Body.String()).ID, jobs.StateDone)
}

// outputSyncFails fails the fsync of every job output file.
type outputSyncFails struct{ faultfs.FS }

type unsyncable struct{ faultfs.File }

func (unsyncable) Sync() error { return syscall.EIO }

func (f outputSyncFails) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err == nil && strings.Contains(name, ".out.csv") {
		file = unsyncable{file}
	}
	return file, err
}

// The manager journals (and fsyncs) a done record pointing at the output
// file; a job whose output could not be made durable must therefore end
// failed, never done.
func TestJobOutputNotDurableFailsJob(t *testing.T) {
	dir := t.TempDir()
	_, h := jobsServer(t, dir, nil, func(c *config) { c.fs = outputSyncFails{faultfs.OS} })
	rec := do(t, h, "POST", "/jobs/anonymize?measure=k-anonymity&k=2", figure1CSV(t))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	j := waitJob(t, h, decodeJob(t, rec.Body.String()).ID, jobs.StateFailed)
	if !strings.Contains(j.Error, "writing job output") {
		t.Fatalf("job error = %q", j.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, j.ID+".out.csv")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("output file exists after the failed fsync (stat: %v)", err)
	}
}

// The epoch grant is journaled before recovery starts, so a promotion must
// finish bringing the write path up even if the operator's curl hangs up:
// every mirrored stream is registered although the request was cancelled.
func TestReplPromoteSurvivesCancelledRequest(t *testing.T) {
	c := newReplPair(t, true)
	for _, id := range []string{"s1", "s2"} {
		if rec := do(t, c.ph, "POST", appendURL(id, "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
			t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
		}
	}
	waitRepl(t, "standby to mirror both streams", func() bool { return len(c.sb.Followers()) == 2 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	c.sh.ServeHTTP(rec, httptest.NewRequest("POST", "/repl/promote", nil).WithContext(ctx))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"streams":2`) {
		t.Fatalf("promote under a cancelled request = %d %s", rec.Code, rec.Body)
	}
	if ids := listStreams(t, c.sh); len(ids) != 2 {
		t.Fatalf("promoted node serves %v, want both mirrored streams", ids)
	}
	if rec := do(t, c.sh, "POST", appendURL("s2", "b2"), streamCSV(4, 2)); rec.Code != http.StatusOK {
		t.Fatalf("append on the promoted node = %d: %s", rec.Code, rec.Body)
	}
}
