package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vadasa"
	"vadasa/internal/dist"
	"vadasa/internal/govern"
	"vadasa/internal/jobs"
	"vadasa/internal/risk"
)

// server carries the handler state. A fresh framework per request keeps
// requests isolated (categorization registers datasets in the dictionary).
// The zero value of every tuning field selects a production-safe default.
type server struct {
	newFramework func() (*vadasa.Framework, error)

	// requestTimeout is the per-request wall-clock budget attached to the
	// request context by the deadline middleware (0 = defaultRequestTimeout,
	// negative = no deadline).
	requestTimeout time.Duration
	// maxBody caps the request body size in bytes (0 = 64 MiB).
	maxBody int64
	// budgetCeiling caps the ?budget= engine work budget a client may ask
	// for (0 = defaultBudgetCeiling).
	budgetCeiling int64
	// inflight, when non-nil, is the concurrency-limiting semaphore; its
	// capacity is the -max-inflight flag.
	inflight chan struct{}
	// logf overrides log.Printf in tests; nil logs normally.
	logf func(format string, args ...any)
	// extraMeasures lets tests register fault-injection measures (slow,
	// panicking) without widening the production query surface. Never set
	// outside tests.
	extraMeasures map[string]func() vadasa.RiskMeasure
	// jobs, when non-nil, enables the asynchronous job API (-job-dir);
	// jobDir is where inputs, outputs and journals live.
	jobs   *jobs.Manager
	jobDir string
	// govern, when non-nil, is the server-wide resource governor: every
	// request and job runs under a child scope of it, and /readyz turns
	// not-ready while any of its budgets are saturated.
	govern *govern.Governor
	// maxCells caps rows×columns of a decoded CSV (0 = defaultMaxCells,
	// negative = disabled). Oversized datasets are refused with 413
	// before any parsing or categorization work is spent on them.
	maxCells int64
	// recovering is set while startup job recovery replays journals in
	// the background; /readyz answers 503 until it clears.
	recovering atomic.Bool
	// dist, when non-nil, is the shard-worker supervisor: incremental
	// risk re-scoring fans out to vadasaw processes, and /readyz reports
	// degraded (200) when none are healthy but in-process fallback still
	// serves — or 503 with Retry-After under -require-workers.
	dist *dist.Supervisor
	// streams, when non-nil, enables the crash-consistent streaming
	// anonymization API (-stream-dir): journaled ingestion windows with
	// gated, exactly-once releases.
	streams *streamRegistry
	// repl, when non-nil, is the warm-standby replication wiring
	// (-repl-role): a primary ships every journal append to its peers
	// and refuses writes once fenced; a standby mirrors, serves
	// read-only releases, and can be promoted in place.
	repl *replState
}

// defaultBudgetCeiling matches the engine's own MaxWork default: clients may
// lower the join budget per request, never raise it past the server cap.
const defaultBudgetCeiling = 1_000_000_000

// defaultMaxCells bounds rows×columns of a decoded CSV when the operator
// sets nothing: ten million cells is far beyond any interactive dataset but
// well below what would stall the categorizer and the risk measures.
const defaultMaxCells = 10_000_000

func (s *server) bodyLimit() int64 {
	if s.maxBody > 0 {
		return s.maxBody
	}
	return 64 << 20
}

// readBody reads a request body of at most limit bytes. A declared
// Content-Length sizes the buffer once; io.ReadAll would grow it step by
// step, copying a megabyte-sized CSV several times over.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	if r.ContentLength <= 0 || r.ContentLength > limit {
		return io.ReadAll(body)
	}
	buf := bytes.NewBuffer(make([]byte, 0, r.ContentLength+bytes.MinRead))
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

func (s *server) cellCap() int64 {
	switch {
	case s.maxCells > 0:
		return s.maxCells
	case s.maxCells < 0:
		return 0 // disabled
	}
	return defaultMaxCells
}

func (s *server) budgetCap() int64 {
	if s.budgetCeiling > 0 {
		return s.budgetCeiling
	}
	return defaultBudgetCeiling
}

func (s *server) logPrintf(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// routes assembles the mux and the hardening middleware around it: panic
// recovery outermost (it must catch everything), then load shedding, then
// the per-request deadline, then the per-request resource scope (innermost,
// so its lifetime matches the handler exactly).
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /measures", s.handleMeasures)
	mux.HandleFunc("POST /categorize", s.handleCategorize)
	mux.HandleFunc("POST /assess", s.handleAssess)
	mux.HandleFunc("POST /anonymize", s.handleAnonymize)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /lint", s.handleLint)
	mux.HandleFunc("POST /reason", s.handleReason)
	if s.jobs != nil {
		s.jobRoutes(mux)
	}
	if s.streams != nil {
		s.streamRoutes(mux)
	}
	if s.repl != nil {
		s.replRoutes(mux)
	}
	return s.withRecovery(s.withLimit(s.withDeadline(s.withGovern(s.withRepl(mux)))))
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: distinct from liveness, it reports
// whether the daemon should receive NEW traffic right now. It answers 503
// while startup recovery is still replaying job journals (serving before
// that would race resumed jobs against fresh submissions for the same
// budgets) and while any governor budget is saturated (new work would only
// be refused with 503s anyway — better to tell the load balancer up front).
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.recovering.Load() {
		w.Header().Set("Retry-After", "5")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "recovering", "reason": "replaying job journals",
		})
		return
	}
	if err := s.govern.Err(); err != nil {
		w.Header().Set("Retry-After", "15")
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "saturated", "reason": err.Error(),
		})
		return
	}
	if s.repl.servingStandby() {
		// A healthy standby is "ready" for what it serves (mirrored
		// reads) — but a diverged one is lying about the primary's state
		// and must be pulled from rotation until an operator rebuilds it.
		if d := s.repl.standby.Diverged(); len(d) > 0 {
			w.Header().Set("Retry-After", "60")
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "diverged", "reason": "mirrored state contradicts the primary's digests",
				"diverged": d, "standby": true,
			})
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "standby", "standby": true})
		return
	}
	if s.repl != nil && s.repl.primary != nil {
		// Fenced (demoted) or lagging past -repl-lag-max: this node should
		// not receive new writes.
		if err := s.repl.primary.ReadyErr(); err != nil {
			w.Header().Set("Retry-After", "5")
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "replication", "reason": err.Error(),
			})
			return
		}
	}
	if s.dist != nil && s.dist.Degraded() {
		// Degraded is not down: with in-process fallback the service still
		// completes every job, just without worker isolation — 200 so load
		// balancers keep routing, with the status visible to operators.
		// Under -require-workers the fallback is disabled, so degraded
		// really means "new work will be refused": 503 with Retry-After.
		body := map[string]any{
			"status": "degraded",
			"reason": "no healthy shard workers; serving in-process",
			"dist":   s.dist.Snapshot(),
		}
		if s.dist.RequiresWorkers() {
			body["reason"] = "no healthy shard workers and -require-workers is set"
			w.Header().Set("Retry-After", "5")
			s.writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
		s.writeJSON(w, http.StatusOK, body)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
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

func (s *server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	f, err := s.newFramework()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string][]string{"measures": f.MeasureNames()})
}

// loadDataset reads the request body as CSV and categorizes attributes,
// honouring the id/qi/weight query overrides and the ?budget= engine cap.
func (s *server) loadDataset(w http.ResponseWriter, r *http.Request) (*vadasa.Framework, *vadasa.Dataset, *vadasa.CategorizationResult, error) {
	f, err := s.newFramework()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := s.applyBudget(f, r.URL.Query()); err != nil {
		return nil, nil, nil, err
	}
	body, err := readBody(w, r, s.bodyLimit())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reading body: %w", err)
	}
	// The raw body is the floor of what this request will hold in memory;
	// charging it up front makes admission fail fast instead of deep in
	// the engine. The request scope releases it when the response is done.
	if err := govern.From(r.Context()).Reserve(govern.Memory, int64(len(body))); err != nil {
		return nil, nil, nil, err
	}
	d, report, err := buildDataset(f, body, r.URL.Query(), s.cellCap())
	if err != nil {
		return nil, nil, nil, err
	}
	return f, d, report, nil
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

// applyBudget validates and applies the ?budget= engine work cap.
func (s *server) applyBudget(f *vadasa.Framework, q url.Values) error {
	budget, err := int64Value(q, "budget", 0)
	if err != nil {
		return err
	}
	if budget < 0 {
		return fmt.Errorf("budget must be positive, got %d", budget)
	}
	if budget > s.budgetCap() {
		return fmt.Errorf("budget %d exceeds the server ceiling of %d", budget, s.budgetCap())
	}
	if budget > 0 {
		f.SetReasonerBudget(budget)
	}
	return nil
}

// buildDataset categorizes and parses a CSV body under query-style options \u2014
// shared between the synchronous handlers (live request) and the job runner
// (parameters replayed from the journal). Header names are cleaned of a
// UTF-8 BOM and surrounding whitespace before categorization, so exports
// from spreadsheet tools categorize the same as clean CSVs. maxCells, when
// positive, bounds the decoded table's rows\u00d7columns \u2014 checked by counting
// newlines before any parsing work is spent on an oversized body.
func buildDataset(f *vadasa.Framework, body []byte, q url.Values, maxCells int64) (*vadasa.Dataset, *vadasa.CategorizationResult, error) {
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("empty body; POST a CSV with a header row")
	}
	head, rest, ok := bytes.Cut(body, []byte("\n"))
	if !ok {
		return nil, nil, fmt.Errorf("body has no data rows")
	}
	header := strings.TrimPrefix(string(head), "\ufeff")
	names := strings.Split(strings.TrimRight(header, "\r"), ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if maxCells > 0 {
		rows := int64(bytes.Count(rest, []byte("\n")))
		if !bytes.HasSuffix(rest, []byte("\n")) {
			rows++ // final row without a trailing newline
		}
		if cells := rows * int64(len(names)); cells > maxCells {
			return nil, nil, &cellLimitError{rows: rows, cols: int64(len(names)), limit: maxCells}
		}
	}

	overrides := map[string]vadasa.Category{}
	for _, n := range splitValues(q, "id") {
		overrides[n] = vadasa.Identifier
	}
	for _, n := range splitValues(q, "qi") {
		overrides[n] = vadasa.QuasiIdentifier
	}
	for _, n := range splitValues(q, "weight") {
		overrides[n] = vadasa.Weight
	}
	for _, n := range splitValues(q, "plain") {
		overrides[n] = vadasa.NonIdentifying
	}

	attrs := make([]vadasa.Attribute, len(names))
	var toInfer []string
	for i, n := range names {
		attrs[i] = vadasa.Attribute{Name: n, Category: vadasa.NonIdentifying}
		if c, ok := overrides[n]; ok {
			attrs[i].Category = c
		} else {
			toInfer = append(toInfer, n)
		}
	}
	tmp := vadasa.NewDataset("request", toAttrs(toInfer))
	report, err := f.Register(tmp)
	if err != nil {
		return nil, nil, err
	}
	for i := range attrs {
		if c, ok := report.Categories[attrs[i].Name]; ok {
			if _, manual := overrides[attrs[i].Name]; !manual {
				attrs[i].Category = c
			}
		}
	}
	// ReadCSV gets the cleaned header line, so its schema check sees the same
	// names categorization did, followed by the data rows straight from the
	// request body.
	cleaned := io.MultiReader(strings.NewReader(strings.Join(names, ",")+"\n"), bytes.NewReader(rest))
	d, err := vadasa.ReadCSV(cleaned, "request", attrs)
	if err != nil {
		return nil, nil, err
	}
	return d, report, nil
}

func toAttrs(names []string) []vadasa.Attribute {
	attrs := make([]vadasa.Attribute, len(names))
	for i, n := range names {
		attrs[i] = vadasa.Attribute{Name: n}
	}
	return attrs
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

func (s *server) handleCategorize(w http.ResponseWriter, r *http.Request) {
	_, d, report, err := s.loadDataset(w, r)
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
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
	s.writeJSON(w, http.StatusOK, out)
}

// measureFromValues builds the risk measure from query-style parameters —
// live request query or journal-replayed job params. Test-only
// fault-injection measures registered in extraMeasures take precedence.
func (s *server) measureFromValues(q url.Values) (vadasa.RiskMeasure, error) {
	name := q.Get("measure")
	if name == "" {
		name = "k-anonymity"
	}
	if factory, ok := s.extraMeasures[name]; ok {
		return factory(), nil
	}
	k, err := intValue(q, "k", 2)
	if err != nil {
		return nil, err
	}
	msu, err := intValue(q, "msu", 3)
	if err != nil {
		return nil, err
	}
	switch name {
	case "re-identification":
		return vadasa.ReIdentification{}, nil
	case "k-anonymity":
		return vadasa.KAnonymity{K: k}, nil
	case "individual-risk":
		return vadasa.IndividualRisk{Estimator: vadasa.PosteriorEstimator}, nil
	case "suda":
		return vadasa.SUDA{Threshold: msu}, nil
	case "l-diversity":
		sens := q.Get("sensitive")
		if sens == "" {
			return nil, fmt.Errorf("l-diversity needs the sensitive query parameter")
		}
		return vadasa.LDiversity{L: k, Sensitive: sens}, nil
	case "t-closeness":
		sens := q.Get("sensitive")
		if sens == "" {
			return nil, fmt.Errorf("t-closeness needs the sensitive query parameter")
		}
		tv, err := floatValue(q, "t", 0.3)
		if err != nil {
			return nil, err
		}
		return vadasa.TCloseness{T: tv, Sensitive: sens}, nil
	default:
		return nil, fmt.Errorf("unknown measure %q", name)
	}
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
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s parameter %q", key, v)
	}
	return f, nil
}

func (s *server) handleAssess(w http.ResponseWriter, r *http.Request) {
	f, d, _, err := s.loadDataset(w, r)
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
	}
	m, err := s.measureFromValues(r.URL.Query())
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	threshold, err := floatValue(r.URL.Query(), "threshold", 0.5)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	risks, err := f.AssessRiskContext(r.Context(), d, m)
	if err != nil {
		s.failRequest(w, http.StatusUnprocessableEntity, err)
		return
	}
	summary := vadasa.SummarizeRisks(risks, threshold)
	var risky []int
	for i, rr := range risks {
		if rr > threshold {
			risky = append(risky, d.Rows[i].ID)
		}
	}
	s.writeJSON(w, http.StatusOK, struct {
		Measure string             `json:"measure"`
		Tuples  int                `json:"tuples"`
		Summary vadasa.RiskSummary `json:"summary"`
		Risky   []int              `json:"riskyTupleIds"`
	}{m.Name(), len(d.Rows), summary, risky})
}

func (s *server) handleAnonymize(w http.ResponseWriter, r *http.Request) {
	f, d, _, err := s.loadDataset(w, r)
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
	}
	m, err := s.measureFromValues(r.URL.Query())
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	threshold, err := floatValue(r.URL.Query(), "threshold", 0.5)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	res, err := f.AnonymizeContext(r.Context(), d, vadasa.CycleOptions{
		Measure:     s.distMeasure(m),
		Threshold:   threshold,
		UseRecoding: r.URL.Query().Get("recode") == "true",
	})
	if err != nil {
		s.failRequest(w, http.StatusUnprocessableEntity, err)
		return
	}
	var csvBuf bytes.Buffer
	if err := vadasa.WriteCSV(&csvBuf, res.Dataset); err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	var decisions []string
	for _, dec := range res.Decisions {
		decisions = append(decisions, dec.String())
	}
	rep, err := vadasa.CompareUtility(d, res.Dataset)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		CSV             string   `json:"csv"`
		Iterations      int      `json:"iterations"`
		NullsInjected   int      `json:"nullsInjected"`
		InfoLoss        float64  `json:"infoLoss"`
		Residual        []int    `json:"residualTupleIds"`
		Decisions       []string `json:"decisions"`
		SuppressionRate float64  `json:"suppressionRate"`
		MinGroupSize    int      `json:"minGroupSizeAfter"`
	}{
		csvBuf.String(), res.Iterations, res.NullsInjected, res.InfoLoss,
		res.Residual, decisions, rep.SuppressionRate, rep.MinGroupSizeAfter,
	})
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	f, d, _, err := s.loadDataset(w, r)
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, err)
		return
	}
	m, err := s.measureFromValues(r.URL.Query())
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	tuple, err := intValue(r.URL.Query(), "tuple", 0)
	if err != nil || tuple == 0 {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("the tuple query parameter is required"))
		return
	}
	ex, err := f.ExplainRiskContext(r.Context(), d, m, tuple)
	if err != nil {
		s.failRequest(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"explanation": ex})
}

// writeJSON encodes v as the response. Encoding failures after the status
// line has gone out cannot be reported to the client anymore, but they must
// not vanish either — they are logged for the operator.
func (s *server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		s.logPrintf("vadasad: encoding %d response: %v", status, err)
	}
}

// httpError reports err as a JSON error body. If the handler already started
// streaming a response (tracked by the recovery middleware's writer), a
// second WriteHeader would corrupt the stream — log and give up instead.
func (s *server) httpError(w http.ResponseWriter, status int, err error) {
	if tw, ok := w.(*trackingWriter); ok && tw.wroteHeader {
		s.logPrintf("vadasad: error after response started (status %d already sent): %v", tw.status, err)
		return
	}
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}
