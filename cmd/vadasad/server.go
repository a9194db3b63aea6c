package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vadasa"
	"vadasa/internal/dist"
	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/jobs"
	"vadasa/internal/risk"
)

// server carries the handler state. A fresh framework per request keeps
// requests isolated (categorization registers datasets in the dictionary).
type server struct {
	cfg config
	// logf is the one log sink of the daemon: the server's own lines and
	// those of every component it builds (replication, the shard
	// supervisor, jobs, streams) go through it.
	logf func(format string, args ...any)
	// handler is the route table behind the middleware stack.
	handler http.Handler

	// framework is the daemon's one framework, -kb loaded into it at
	// start-up. Nothing a request does changes it: a request that carries a
	// ?budget= works on a copy (frameworkFor).
	framework *vadasa.Framework

	// inflight, when non-nil, is the concurrency-limiting semaphore; its
	// capacity is -max-inflight.
	inflight chan struct{}
	// govern, when non-nil, is the server-wide resource governor: every
	// request and job runs under a child scope of it, and /readyz turns
	// not-ready while any of its budgets are saturated.
	govern *govern.Governor
	// dist, when non-nil, is the shard-worker supervisor: incremental
	// risk re-scoring fans out to vadasaw processes, and /readyz reports
	// degraded (200) when none are healthy but in-process fallback still
	// serves — or 503 with Retry-After under -require-workers.
	dist    *dist.Supervisor
	workers []*dist.Proc
	// repl, when non-nil, is the warm-standby replication wiring
	// (-repl-role): a primary ships every journal append to its peers
	// and refuses writes once fenced; a standby mirrors, serves
	// read-only releases, and can be promoted in place.
	repl *replState

	// writePath holds the jobs manager and the stream registry once they
	// are up: from start-up on, except on a standby, where a promotion
	// publishes it. Nil is what makes a standby "unpromoted".
	writePath atomic.Pointer[writePath]
	// recovering is set while job recovery replays journals in the
	// background; /readyz answers 503 until it clears.
	recovering atomic.Bool
	// promoteMu serializes promotions.
	promoteMu sync.Mutex
}

// writePath is the part of the server that mutates durable state: the jobs
// manager (-job-dir) and the stream registry (-stream-dir), either of which
// may be absent.
type writePath struct {
	jobs    *jobs.Manager
	streams *streamRegistry
	// jobsRecovered is closed when background job recovery has finished.
	jobsRecovered chan struct{}
}

func (s *server) jobs() *jobs.Manager      { return s.writePath.Load().jobs }
func (s *server) streams() *streamRegistry { return s.writePath.Load().streams }

// newFramework builds the daemon's framework, loading -kb when set.
func newFramework(kbPath string) (*vadasa.Framework, error) {
	f := vadasa.New()
	if kbPath != "" {
		file, err := os.Open(kbPath)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		if err := f.LoadKB(file); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newServer builds the daemon from its configuration: everything between
// flag parsing and the listener. In order — the knowledge base is loaded,
// the governor and the load shedder are set up, replication is wired (it must
// exist before the write path: journals are shipped through hooks installed
// at creation time, and a standby must not bring the write path up at all),
// the shard supervisor starts, and, except on a standby, the write path is
// opened and recovered. Close undoes all of it.
func newServer(cfg config) (_ *server, err error) {
	s := &server{cfg: cfg, logf: cfg.logf}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if s.cfg.fs == nil {
		s.cfg.fs = faultfs.OS
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.framework, err = newFramework(cfg.kbPath); err != nil {
		return nil, err
	}
	if cfg.maxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.maxInflight)
	}
	if cfg.memBudget > 0 || cfg.diskHeadroom > 0 {
		s.govern = govern.New("server", govern.Limits{
			MaxBytes:     cfg.memBudget,
			DiskDir:      cfg.jobDir, // "" disables the disk check
			DiskHeadroom: cfg.diskHeadroom,
		})
	}
	if cfg.replRole != "" {
		if err := s.openReplication(); err != nil {
			return nil, err
		}
	}
	if s.dist = cfg.supervisor; s.dist == nil && (cfg.shardWorkers != "" || cfg.spawnWorkers > 0 || cfg.requireWorkers) {
		if err := s.startSupervisor(); err != nil {
			return nil, err
		}
	}
	s.handler = s.newHandler()
	if cfg.replRole != "standby" {
		if err := s.openWritePath(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// startSupervisor connects to -shard-workers, spawns -spawn-workers and
// starts the supervisor over both.
func (s *server) startSupervisor() error {
	cfg := &s.cfg
	var transports []dist.Transport
	for _, a := range splitList(cfg.shardWorkers) {
		transports = append(transports, dist.NewHTTPTransport(a, nil))
	}
	if cfg.spawnWorkers > 0 {
		bin := cfg.workerBin
		if bin == "" {
			bin = findWorkerBin()
		}
		if bin == "" {
			return fmt.Errorf("-spawn-workers: no vadasaw binary next to the executable or on $PATH; set -worker-bin")
		}
		for i := 0; i < cfg.spawnWorkers; i++ {
			p, err := dist.Spawn(bin, []string{"-quiet"}, nil, 10*time.Second)
			if err != nil {
				return fmt.Errorf("spawning shard worker %d: %w", i, err)
			}
			s.workers = append(s.workers, p)
			transports = append(transports, p.Transport())
			s.logf("vadasad: shard worker %d listening on %s", i, p.Addr())
		}
	}
	s.dist = dist.NewSupervisor(transports, dist.Options{
		Run:               "vadasad",
		LeaseTTL:          cfg.leaseTTL,
		HedgeAfter:        cfg.hedgeAfter,
		HeartbeatInterval: cfg.workerHeartbeat,
		RequireWorkers:    cfg.requireWorkers,
		Governor:          s.govern,
		Logf:              s.logf,
	})
	s.dist.Start()
	s.logf("vadasad: sharded risk scoring over %d worker(s), require-workers=%v",
		len(transports), cfg.requireWorkers)
	return nil
}

// openWritePath brings the write path up over -stream-dir and -job-dir and
// publishes it: at start-up, and again — over the directories the mirror has
// been writing — when a standby is promoted, so failover runs the recovery a
// restart runs, under no request's context. Streams are recovered, all at
// once, before it returns: a stream's WAL keeps every batch since the stream
// was created, so its replay is linear in the journal's length, not the
// window's, and serving an append before its stream's intent→publish protocol
// has been completed would be exactly the inconsistency the journal exists to
// prevent. Job recovery replays journals and re-runs interrupted cycles, which
// with many or large jobs takes real time; it runs in the background behind
// /readyz's "recovering" answer. A component that fails to come up is
// reported and left out; the rest is still published (a failed recovery
// cannot undo a promotion).
func (s *server) openWritePath() error {
	cfg := &s.cfg
	wp := &writePath{}
	var errs []error
	if cfg.streamDir != "" {
		err := os.MkdirAll(cfg.streamDir, 0o755)
		if err != nil {
			err = fmt.Errorf("-stream-dir: %w", err)
		} else {
			wp.streams = newStreamRegistry(s)
			err = wp.streams.recover(context.Background())
		}
		errs = append(errs, err)
	}
	if cfg.jobDir != "" {
		mgr, err := jobs.NewManager(&jobRunner{srv: s}, jobs.Options{
			Dir:          cfg.jobDir,
			Workers:      cfg.jobWorkers,
			MaxAttempts:  cfg.jobRetries,
			RetryBase:    cfg.jobRetryBase,
			RetryCap:     cfg.jobRetryCap,
			FS:           cfg.fs,
			DiskHeadroom: cfg.diskHeadroom,
			Governor:     s.govern,
			PauseProbe:   cfg.jobPauseProbe,
			JournalHook:  s.replJobHook(),
		})
		errs = append(errs, err)
		if err == nil {
			wp.jobs, wp.jobsRecovered = mgr, make(chan struct{})
			s.recovering.Store(true)
			go func() {
				defer close(wp.jobsRecovered)
				defer s.recovering.Store(false)
				resumed, err := mgr.Recover()
				if err != nil {
					s.logf("vadasad: job recovery: %v", err)
				}
				if len(resumed) > 0 {
					s.logf("vadasad: resumed %d interrupted job(s): %v", len(resumed), resumed)
				}
			}()
		}
	}
	s.writePath.Store(wp)
	return errors.Join(errs...)
}

// Close releases everything newServer and a promotion built, write path
// first: each stream writes its drain checkpoint (shipped while the shipper
// still runs), the jobs manager stops, then the supervisor and its spawned
// workers, then the replication side. The listener must have drained before.
func (s *server) Close() {
	if wp := s.writePath.Load(); wp != nil {
		if wp.streams != nil {
			wp.streams.Close(context.Background())
		}
		if wp.jobs != nil {
			wp.jobs.Close()
			<-wp.jobsRecovered
		}
	}
	if s.dist != nil {
		s.dist.Close()
	}
	for _, p := range s.workers {
		p.Kill()
	}
	if s.repl != nil {
		s.repl.close()
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// verdict is one answer of the readiness probe.
type verdict struct {
	code           int
	status, reason string
	retryAfter     string
	extra          map[string]any
}

// readiness asks the probe's checks in order; the first that objects decides.
// Job recovery comes first (serving before it is through would race resumed
// jobs against fresh submissions for the same budgets), then a saturated
// governor (new work would only be refused with 503s anyway — better to tell
// the load balancer up front), then the replication role, then the workers.
func (s *server) readiness() verdict {
	if s.recovering.Load() {
		return verdict{503, "recovering", "replaying job journals", "5", nil}
	}
	if err := s.govern.Err(); err != nil {
		return verdict{503, "saturated", err.Error(), "15", nil}
	}
	if s.unpromoted() {
		// A healthy standby is "ready" for what it serves (mirrored reads)
		// — but a diverged one is lying about the primary's state and must
		// be pulled from rotation until an operator rebuilds it.
		if d := s.repl.standby.Diverged(); len(d) > 0 {
			return verdict{503, "diverged", "mirrored state contradicts the primary's digests", "60",
				map[string]any{"diverged": d, "standby": true}}
		}
		return verdict{200, "standby", "", "", map[string]any{"standby": true}}
	}
	if s.repl != nil && s.repl.primary != nil {
		// Fenced (demoted) or lagging past -repl-lag-max: this node should
		// not receive new writes.
		if err := s.repl.primary.ReadyErr(); err != nil {
			return verdict{503, "replication", err.Error(), "5", nil}
		}
	}
	if s.dist != nil && s.dist.Degraded() {
		// Degraded is not down: with in-process fallback the service still
		// completes every job, just without worker isolation — 200 so load
		// balancers keep routing, with the status visible to operators.
		// Under -require-workers the fallback is disabled, so degraded
		// really means "new work will be refused": 503 with Retry-After.
		extra := map[string]any{"dist": s.dist.Snapshot()}
		if s.dist.RequiresWorkers() {
			return verdict{503, "degraded", "no healthy shard workers and -require-workers is set", "5", extra}
		}
		return verdict{200, "degraded", "no healthy shard workers; serving in-process", "", extra}
	}
	return verdict{200, "ready", "", "", nil}
}

// handleReadyz is the readiness probe: distinct from liveness, it reports
// whether the daemon should receive NEW traffic right now.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	v := s.readiness()
	body := map[string]any{"status": v.status}
	if v.reason != "" {
		body["reason"] = v.reason
	}
	for k, val := range v.extra {
		body[k] = val
	}
	if v.retryAfter != "" {
		w.Header().Set("Retry-After", v.retryAfter)
	}
	return s.writeJSON(w, v.code, body)
}

// distMeasure routes a measure's incremental re-scoring through the shard
// supervisor when one is configured and the measure can ship (it implements
// risk.IncrementalAssessor and is wire-encodable). Everything else — SUDA,
// cluster-wrapped, test doubles — passes through and runs locally, the same
// degradation the supervisor itself applies at runtime.
func (s *server) distMeasure(m vadasa.RiskMeasure) vadasa.RiskMeasure {
	if s.dist == nil {
		return m
	}
	inc, ok := m.(risk.IncrementalAssessor)
	if !ok {
		return m
	}
	da, err := dist.NewAssessor(inc, s.dist)
	if err != nil {
		return m
	}
	return da
}

func (s *server) handleMeasures(w http.ResponseWriter, r *http.Request) error {
	return s.writeJSON(w, http.StatusOK, map[string][]string{"measures": s.framework.MeasureNames()})
}

// readBody reads the request body, at most -max-body bytes of it. A declared
// Content-Length sizes the buffer once; io.ReadAll would grow it step by
// step, copying a megabyte-sized CSV several times over.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	limit := s.cfg.maxBody
	body := http.MaxBytesReader(w, r.Body, limit)
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= limit {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(body); err != nil {
		// Only the opaque stdlib body-cap error needs the limit spelled out.
		if isA[*http.MaxBytesError](err) {
			return nil, fmt.Errorf("request body exceeds the %d-byte limit: reading body: %w", limit, err)
		}
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return buf.Bytes(), nil
}

// readCharged reads the request body and charges its bytes to the request's
// resource scope: the raw body is the floor of what the request will hold in
// memory, and charging it up front makes admission fail fast instead of deep
// in the engine. The scope releases it when the response is done.
func (s *server) readCharged(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	if err := govern.From(r.Context()).ReserveBytes(int64(len(body))); err != nil {
		return nil, err
	}
	return body, nil
}

// frameworkFor returns the framework a request works with: the daemon's,
// or a copy of it carrying the request's ?budget= engine work cap. The copy
// shares the knowledge base, which requests only read.
func (s *server) frameworkFor(q url.Values) (*vadasa.Framework, error) {
	budget, err := s.parseBudget(q)
	if err != nil {
		return nil, err
	}
	if budget == 0 {
		return s.framework, nil
	}
	f := *s.framework
	f.SetReasonerBudget(budget)
	return &f, nil
}

// cycleFromValues parses everything an anonymization cycle takes besides its
// dataset — ?budget=, the measure parameters, ?threshold=, ?recode= — from
// query-style parameters. /anonymize, /jobs/anonymize (before it persists
// anything) and the job runner (parameters replayed from the journal) all go
// through it, so what one refuses with a 400 the others refuse the same way.
// The threshold's range is the cycle's own check.
func (s *server) cycleFromValues(q url.Values) (*vadasa.Framework, vadasa.CycleOptions, error) {
	f, err := s.frameworkFor(q)
	if err != nil {
		return nil, vadasa.CycleOptions{}, err
	}
	m, err := s.measureFromValues(q)
	if err != nil {
		return nil, vadasa.CycleOptions{}, err
	}
	threshold, err := floatValue(q, "threshold", 0.5)
	if err != nil {
		return nil, vadasa.CycleOptions{}, err
	}
	return f, vadasa.CycleOptions{
		Measure:     s.distMeasure(m),
		Threshold:   threshold,
		UseRecoding: q.Get("recode") == "true",
	}, nil
}

// loadDataset reads the request body as CSV and categorizes attributes,
// honouring the id/qi/weight query overrides and the ?budget= engine cap.
func (s *server) loadDataset(w http.ResponseWriter, r *http.Request) (*vadasa.Framework, *vadasa.Dataset, *vadasa.CategorizationResult, error) {
	f, err := s.frameworkFor(r.URL.Query())
	if err != nil {
		return nil, nil, nil, err
	}
	d, report, err := s.readDataset(f, w, r)
	return f, d, report, err
}

// readDataset is loadDataset on a framework the caller already has.
func (s *server) readDataset(f *vadasa.Framework, w http.ResponseWriter, r *http.Request) (*vadasa.Dataset, *vadasa.CategorizationResult, error) {
	body, err := s.readCharged(w, r)
	if err != nil {
		return nil, nil, err
	}
	return buildDataset(f, body, r.URL.Query(), s.cfg.maxCells, vadasa.ParseCSV)
}

// cellLimitError reports a CSV whose rows×columns product exceeds the
// server's -max-cells guard. It maps to 413 like an oversized body: the
// bytes may fit, but the decoded table would not.
type cellLimitError struct {
	rows, cols, limit int64
}

func (e *cellLimitError) Error() string {
	return fmt.Sprintf("dataset of %d rows × %d columns = %d cells exceeds the %d-cell limit (-max-cells)",
		e.rows, e.cols, e.rows*e.cols, e.limit)
}

// parseBudget validates the ?budget= engine work cap against -max-budget;
// zero means the client asked for none.
func (s *server) parseBudget(q url.Values) (int64, error) {
	budget, err := int64Value(q, "budget", 0)
	if err != nil {
		return 0, err
	}
	if budget < 0 {
		return 0, fmt.Errorf("budget must be positive, got %d", budget)
	}
	if budget > s.cfg.maxBudget {
		return 0, fmt.Errorf("budget %d exceeds the server ceiling of %d", budget, s.cfg.maxBudget)
	}
	return budget, nil
}

// buildDataset categorizes and parses a CSV body under query-style options —
// shared between the synchronous handlers (live request) and the job runner
// (parameters replayed from the journal). The header is read the way every
// intake path reads it (vadasa.CSVHeader), so exports from spreadsheet tools
// categorize the same as clean CSVs. maxCells, when positive, bounds the
// decoded table's rows×columns — checked by counting newlines before any
// parsing work is spent on an oversized body. read parses the body against
// the schema in place, so the dataset keeps body: vadasa.ParseCSV, or a read
// of one tuple's group.
func buildDataset(f *vadasa.Framework, body []byte, q url.Values, maxCells int64, read csvRead) (*vadasa.Dataset, *vadasa.CategorizationResult, error) {
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("empty body; POST a CSV with a header row")
	}
	_, rest, ok := bytes.Cut(body, []byte("\n"))
	if !ok {
		return nil, nil, fmt.Errorf("body has no data rows")
	}
	names, err := vadasa.CSVHeader(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	rows := int64(bytes.Count(rest, []byte("\n")))
	if !bytes.HasSuffix(rest, []byte("\n")) {
		rows++ // final row without a trailing newline
	}
	if err := checkCells(rows, int64(len(names)), maxCells); err != nil {
		return nil, nil, err
	}
	attrs, report := f.Schema(names, overridesFromValues(q))
	d, err := read(body, "request", attrs)
	if err != nil {
		return nil, nil, err
	}
	return d, report, nil
}

// csvRead is a CSV parse against a schema, as vadasa.ParseCSV.
type csvRead func(b []byte, name string, attrs []vadasa.Attribute) (*vadasa.Dataset, error)

// checkCells enforces -max-cells (0 disables it) on a rows×cols table.
func checkCells(rows, cols, maxCells int64) error {
	if maxCells > 0 && rows*cols > maxCells {
		return &cellLimitError{rows: rows, cols: cols, limit: maxCells}
	}
	return nil
}

// overridesFromValues reads the id/qi/weight/plain query overrides: the
// categories a client fixes by hand instead of leaving them to inference.
func overridesFromValues(q url.Values) map[string]vadasa.Category {
	overrides := map[string]vadasa.Category{}
	// In this order: a name listed twice takes the later category.
	for _, o := range []struct {
		key string
		cat vadasa.Category
	}{{"id", vadasa.Identifier}, {"qi", vadasa.QuasiIdentifier}, {"weight", vadasa.Weight}, {"plain", vadasa.NonIdentifying}} {
		for _, n := range splitValues(q, o.key) {
			overrides[n] = o.cat
		}
	}
	return overrides
}

func splitValues(q url.Values, key string) []string {
	v := q.Get(key)
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (s *server) handleCategorize(w http.ResponseWriter, r *http.Request) error {
	_, d, report, err := s.loadDataset(w, r)
	if err != nil {
		return badRequest(err)
	}
	type attrOut struct {
		Name        string `json:"name"`
		Category    string `json:"category"`
		Explanation string `json:"explanation,omitempty"`
	}
	out := struct {
		Attributes []attrOut `json:"attributes"`
		Conflicts  []string  `json:"conflicts,omitempty"`
		Unknown    []string  `json:"unknown,omitempty"`
	}{}
	for _, a := range d.Attrs {
		out.Attributes = append(out.Attributes, attrOut{
			Name:        a.Name,
			Category:    a.Category.String(),
			Explanation: report.Explanations[a.Name],
		})
	}
	for _, c := range report.Conflicts {
		out.Conflicts = append(out.Conflicts, c.String())
	}
	out.Unknown = report.Unknown
	return s.writeJSON(w, http.StatusOK, out)
}

// measureFromValues builds the risk measure from query-style parameters —
// live request query or journal-replayed job params — through the risk
// layer's measure table. Test-only fault-injection measures registered in
// extraMeasures take precedence.
func (s *server) measureFromValues(q url.Values) (vadasa.RiskMeasure, error) {
	if factory, ok := s.cfg.extraMeasures[q.Get("measure")]; ok {
		return factory(), nil
	}
	sp, err := risk.ParseSpec(q.Get)
	if err != nil {
		return nil, err
	}
	return sp.Measure()
}

func intValue(q url.Values, key string, def int) (int, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", key, v)
	}
	return n, nil
}

func int64Value(q url.Values, key string, def int64) (int64, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", key, v)
	}
	return n, nil
}

func floatValue(q url.Values, key string, def float64) (float64, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	f, err := risk.ParseFinite(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", key, v)
	}
	return f, nil
}

func (s *server) handleAssess(w http.ResponseWriter, r *http.Request) error {
	f, d, _, err := s.loadDataset(w, r)
	if err != nil {
		return badRequest(err)
	}
	m, err := s.measureFromValues(r.URL.Query())
	if err != nil {
		return badRequest(err)
	}
	threshold, err := floatValue(r.URL.Query(), "threshold", 0.5)
	if err != nil {
		return badRequest(err)
	}
	risks, err := f.AssessRiskContext(r.Context(), d, m)
	if err != nil {
		return unprocessable(err)
	}
	summary := vadasa.SummarizeRisks(risks, threshold)
	var risky []int
	for i, rr := range risks {
		if rr > threshold {
			risky = append(risky, d.Rows[i].ID)
		}
	}
	return s.writeJSON(w, http.StatusOK, struct {
		Measure string             `json:"measure"`
		Tuples  int                `json:"tuples"`
		Summary vadasa.RiskSummary `json:"summary"`
		Risky   []int              `json:"riskyTupleIds"`
	}{m.Name(), len(d.Rows), summary, risky})
}

func (s *server) handleAnonymize(w http.ResponseWriter, r *http.Request) error {
	f, opts, err := s.cycleFromValues(r.URL.Query())
	if err != nil {
		return badRequest(err)
	}
	d, _, err := s.readDataset(f, w, r)
	if err != nil {
		return badRequest(err)
	}
	// The table is this request's alone: the cycle anonymizes it in place.
	res, err := f.AnonymizeInPlace(r.Context(), d, opts, nil)
	if err != nil {
		return unprocessable(err)
	}
	// The reply's two utility figures are utility.Compare's, from what the
	// cycle already has: it never turns a null back into a constant, so the
	// nulls it injected are the quasi-identifier cells it suppressed, and the
	// smallest group of the release is in its result.
	rate := 0.0
	if cells := len(d.Rows) * len(d.QuasiIdentifiers()); cells > 0 {
		rate = float64(res.NullsInjected) / float64(cells)
	}
	return writeAnonymizeResponse(w, res, rate)
}

// writeAnonymizeResponse writes the /anonymize reply, byte for byte the
// document writeJSON made of it as a struct, without holding the release:
// WriteCSV escapes it into the response a chunk at a time, and the fields
// after it are appended as /reason appends its facts.
func writeAnonymizeResponse(w http.ResponseWriter, res *vadasa.CycleResult, rate float64) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	release := &jsonStringWriter{w: w}
	_, err := io.WriteString(w, `{"csv":"`)
	if err == nil {
		err = vadasa.WriteCSV(release, res.Dataset)
	}
	if err == nil {
		err = release.Close()
	}
	buf := strconv.AppendInt([]byte(`","iterations":`), int64(res.Iterations), 10)
	buf = strconv.AppendInt(append(buf, `,"nullsInjected":`...), int64(res.NullsInjected), 10)
	buf = appendJSONFloat(append(buf, `,"infoLoss":`...), res.InfoLoss)
	buf = appendJSONList(append(buf, `,"residualTupleIds":`...), len(res.Residual), func(b []byte, i int) []byte {
		return strconv.AppendInt(b, int64(res.Residual[i]), 10)
	})
	buf = appendJSONList(append(buf, `,"decisions":`...), len(res.Decisions), func(b []byte, i int) []byte {
		return appendJSONString(b, res.Decisions[i].String())
	})
	buf = appendJSONFloat(append(buf, `,"suppressionRate":`...), rate)
	buf = strconv.AppendInt(append(buf, `,"minGroupSizeAfter":`...), int64(res.MinGroupSize), 10)
	if err == nil {
		_, err = w.Write(append(buf, "}\n"...))
	}
	if err != nil {
		return fmt.Errorf("encoding 200 response: %w", err)
	}
	return nil
}

// handleExplain reads only the tuple's group when the explanation needs no
// more (vadasa.ExplainReadsGroup), and the whole table otherwise; both reads
// check the whole body, so a bad body fails before a bad measure or tuple
// either way, and the reply is the same.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	f, err := s.frameworkFor(q)
	if err != nil {
		return badRequest(err)
	}
	body, err := s.readCharged(w, r)
	if err != nil {
		return badRequest(err)
	}
	m, merr := s.measureFromValues(q)
	tuple, terr := intValue(q, "tuple", 0)
	read := vadasa.ParseCSV
	if merr == nil && terr == nil && tuple > 0 && vadasa.ExplainReadsGroup(m) {
		read = func(b []byte, name string, attrs []vadasa.Attribute) (*vadasa.Dataset, error) {
			return vadasa.ParseCSVGroup(b, name, attrs, tuple)
		}
	}
	d, _, err := buildDataset(f, body, q, s.cfg.maxCells, read)
	if err != nil {
		return badRequest(err)
	}
	if err := cmp.Or(merr, terr); err != nil {
		return badRequest(err)
	}
	if tuple == 0 {
		return badRequest(fmt.Errorf("the tuple query parameter is required"))
	}
	ex, err := f.ExplainRiskContext(r.Context(), d, m, tuple)
	if err != nil {
		return unprocessable(err)
	}
	return s.writeJSON(w, http.StatusOK, map[string]string{"explanation": ex})
}

// writeJSON encodes v as the response. An encoding failure comes after the
// status line has gone out and cannot be reported to the client anymore; it is
// returned so that it reaches fail, which logs it for the operator.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("encoding %d response: %w", status, err)
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(v string) []string {
	var out []string
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}
