package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"

	"vadasa/internal/faultfs"
	"vadasa/internal/mdb"
	"vadasa/internal/stream"
)

// streamRegistry owns the server's open ingestion streams: one journaled
// stream.Stream per id under -stream-dir, created lazily by the first append
// and recovered from their WALs at startup. Closing the registry drains every
// stream (each writes its checkpoint record), which is what the SIGTERM path
// relies on.
type streamRegistry struct {
	srv          *server
	dir          string
	maxRows      int
	diskHeadroom int64

	mu      sync.Mutex
	streams map[string]*stream.Stream
	closed  bool
}

func newStreamRegistry(srv *server, dir string, maxRows int, diskHeadroom int64) *streamRegistry {
	return &streamRegistry{
		srv:          srv,
		dir:          dir,
		maxRows:      maxRows,
		diskHeadroom: diskHeadroom,
		streams:      make(map[string]*stream.Stream),
	}
}

// streamMeta is what the server journals in the create record's Meta field:
// the measure-defining query parameters, so startup recovery can rebuild the
// assessor without any state outside the WAL.
type streamMeta struct {
	Params string `json:"params"` // url.Values-encoded measure parameters
}

// recover reopens every stream journaled under the registry directory,
// completing any release interrupted between its intent and publish records.
// A stream whose WAL cannot be recovered is logged and skipped — one corrupt
// journal must not take down the streams that replay cleanly — and its id
// stays free of the registry so appends to it fail loudly rather than
// silently starting a fresh window over the broken journal.
func (r *streamRegistry) recover(ctx context.Context) (int, error) {
	paths, err := filepath.Glob(filepath.Join(r.dir, "*.wal"))
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".wal")
		info, err := stream.Peek(ctx, faultfs.OS, path)
		if err != nil {
			r.srv.logPrintf("vadasad: stream %s: unreadable journal header, skipping: %v", id, err)
			continue
		}
		opts, err := r.optionsFromInfo(info)
		if err != nil {
			r.srv.logPrintf("vadasad: stream %s: rebuilding options: %v", id, err)
			continue
		}
		r.srv.applyReplStream(info.ID, path, &opts)
		s, err := stream.Open(ctx, info.ID, path, opts)
		if err != nil {
			r.srv.logPrintf("vadasad: stream %s: recovery failed, skipping: %v", id, err)
			continue
		}
		r.srv.registerReplStream(s, path)
		r.streams[info.ID] = s
	}
	return len(r.streams), nil
}

// optionsFromInfo rebuilds a recovered stream's Options from the journal
// header: schema, threshold and semantics come straight from the create
// record; the assessor is rebuilt from the measure parameters the server
// stored in Meta at creation.
func (r *streamRegistry) optionsFromInfo(info *stream.Info) (stream.Options, error) {
	var meta streamMeta
	if err := json.Unmarshal(info.Meta, &meta); err != nil {
		return stream.Options{}, fmt.Errorf("decoding journaled measure parameters: %w", err)
	}
	params, err := url.ParseQuery(meta.Params)
	if err != nil {
		return stream.Options{}, fmt.Errorf("parsing journaled measure parameters: %w", err)
	}
	m, err := r.srv.measureFromValues(params)
	if err != nil {
		return stream.Options{}, err
	}
	return stream.Options{
		Assessor:     m,
		Threshold:    info.Threshold,
		Semantics:    info.Semantics,
		Attrs:        info.Attrs,
		Meta:         info.Meta,
		MaxRows:      r.maxRows,
		Governor:     r.srv.govern,
		DiskHeadroom: r.diskHeadroom,
		Logf:         r.srv.logPrintf,
	}, nil
}

// get returns the open stream id, or nil.
func (r *streamRegistry) get(id string) *stream.Stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[id]
}

// create opens a fresh stream under the registry, categorizing the CSV header
// to a schema exactly like the synchronous endpoints do. A concurrent create
// of the same id loses the race idempotently: the winner's stream is
// returned.
func (r *streamRegistry) create(ctx context.Context, id string, body []byte, q url.Values) (*stream.Stream, error) {
	f, err := r.srv.newFramework()
	if err != nil {
		return nil, err
	}
	d, _, err := buildDataset(f, body, q, r.srv.cellCap())
	if err != nil {
		return nil, err
	}
	m, err := r.srv.measureFromValues(q)
	if err != nil {
		return nil, err
	}
	threshold, err := floatValue(q, "threshold", 0.5)
	if err != nil {
		return nil, err
	}
	sem, err := semanticsFromValues(q)
	if err != nil {
		return nil, err
	}
	// Journal only the measure-defining parameters: the schema and threshold
	// live in dedicated create-record fields, and per-request keys (batch)
	// must not leak into the stream's durable identity.
	meta := url.Values{}
	for _, k := range []string{"measure", "k", "msu", "sensitive", "t"} {
		if v := q.Get(k); v != "" {
			meta.Set(k, v)
		}
	}
	metaJSON, err := json.Marshal(streamMeta{Params: meta.Encode()})
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, stream.ErrClosed
	}
	if s, ok := r.streams[id]; ok {
		return s, nil
	}
	path := filepath.Join(r.dir, id+".wal")
	opts := stream.Options{
		Assessor:     m,
		Threshold:    threshold,
		Semantics:    sem,
		Attrs:        d.Attrs,
		Meta:         metaJSON,
		MaxRows:      r.maxRows,
		Governor:     r.srv.govern,
		DiskHeadroom: r.diskHeadroom,
		Logf:         r.srv.logPrintf,
	}
	r.srv.applyReplStream(id, path, &opts)
	s, err := stream.Open(ctx, id, path, opts)
	if err != nil {
		return nil, err
	}
	r.srv.registerReplStream(s, path)
	r.streams[id] = s
	return s, nil
}

// Close drains every stream: each writes its drain checkpoint and releases
// its governor charges. Called on shutdown after the listener has drained.
func (r *streamRegistry) Close(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for id, s := range r.streams {
		if err := s.Close(ctx); err != nil {
			r.srv.logPrintf("vadasad: draining stream %s: %v", id, err)
		}
		r.srv.unregisterReplStream(id)
	}
}

// streamRoutes registers the streaming ingestion API. Only called when the
// registry is configured (-stream-dir).
func (s *server) streamRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /streams", s.handleStreamList)
	mux.HandleFunc("POST /stream/{id}/append", s.handleStreamAppend)
	mux.HandleFunc("GET /stream/{id}/release", s.handleStreamRelease)
	mux.HandleFunc("GET /stream/{id}/status", s.handleStreamStatus)
	mux.HandleFunc("POST /stream/{id}/ack", s.handleStreamAck)
	mux.HandleFunc("POST /stream/{id}/withdraw", s.handleStreamWithdraw)
}

// streamID validates the path id: it names a file under -stream-dir, so the
// alphabet is restricted long before filepath sees it.
func streamID(r *http.Request) (string, error) {
	id := r.PathValue("id")
	if id == "" || len(id) > 64 {
		return "", fmt.Errorf("stream id must be 1-64 characters")
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return "", fmt.Errorf("stream id %q: only letters, digits, '-' and '_' are allowed", id)
		}
	}
	return id, nil
}

// semanticsFromValues parses the ?semantics= labelled-null semantics
// parameter (default: maybe-match, the paper's Section 4 semantics).
func semanticsFromValues(q url.Values) (mdb.Semantics, error) {
	switch v := q.Get("semantics"); v {
	case "", "maybe-match":
		return mdb.MaybeMatch, nil
	case "standard":
		return mdb.StandardNulls, nil
	default:
		return 0, fmt.Errorf("unknown semantics %q (want maybe-match or standard)", v)
	}
}

// parseBatchCSV splits the request body into a cleaned header and the raw
// row cells. The cells stay strings: the stream journals them verbatim, and
// replay re-parses them exactly as the live path did.
func parseBatchCSV(body []byte) (names []string, rows [][]string, err error) {
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("empty body; POST a CSV with a header row")
	}
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("parsing CSV: %w", err)
	}
	if len(recs) < 2 {
		return nil, nil, fmt.Errorf("body has no data rows")
	}
	names = recs[0]
	names[0] = strings.TrimPrefix(names[0], "\ufeff")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names, recs[1:], nil
}

// handleStreamAppend ingests one batch into the stream, creating the stream
// on first contact (the CSV header is categorized to a schema exactly like
// the synchronous endpoints; id/qi/weight query overrides apply). The batch
// is journaled and fsync'd before the 200 goes out — an acknowledged batch
// survives any crash. ?batch= is the mandatory idempotency key: retrying an
// acknowledged batch returns duplicate=true without re-applying it.
func (s *server) handleStreamAppend(w http.ResponseWriter, r *http.Request) {
	id, err := streamID(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}
	batch := r.URL.Query().Get("batch")
	if batch == "" {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("the batch query parameter (idempotency key) is required"))
		return
	}
	body, err := readBody(w, r, s.bodyLimit())
	if err != nil {
		s.failRequest(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	names, rows, err := parseBatchCSV(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}

	st := s.streams.get(id)
	created := false
	if st == nil {
		if st, err = s.streams.create(r.Context(), id, body, r.URL.Query()); err != nil {
			s.failStream(w, http.StatusBadRequest, err)
			return
		}
		created = true
	}
	attrs := st.Attrs()
	if len(names) != len(attrs) {
		s.httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch has %d columns, stream %s has %d", len(names), id, len(attrs)))
		return
	}
	for i, a := range attrs {
		if names[i] != a.Name {
			s.httpError(w, http.StatusBadRequest,
				fmt.Errorf("batch column %d is %q, stream %s expects %q", i, names[i], id, a.Name))
			return
		}
	}

	res, err := st.Append(r.Context(), batch, rows)
	if err != nil {
		s.failStream(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
		w.Header().Set("Location", "/stream/"+id+"/status")
	}
	s.writeJSON(w, status, struct {
		Stream string `json:"stream"`
		*stream.AppendResult
	}{id, res})
}

// handleStreamRelease drives the release gate: anonymize the window until
// every tuple clears the threshold, publish the snapshot under the
// intent→publish protocol, and serve the bytes. An already-published, unacked
// release is re-served unchanged — the client acks when it has the bytes.
func (s *server) handleStreamRelease(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	info, err := st.Release(r.Context())
	if err != nil {
		s.failStream(w, http.StatusUnprocessableEntity, err)
		return
	}
	b, err := st.ReleaseBytes(info)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Stream  string              `json:"stream"`
		Release *stream.ReleaseInfo `json:"release"`
		CSV     string              `json:"csv"`
	}{st.ID(), info, string(b)})
}

// handleStreamStatus reports the stream's point-in-time counters.
func (s *server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, struct {
		Stream string `json:"stream"`
		stream.Status
	}{st.ID(), st.Status(r.Context())})
}

// handleStreamAck retires a published release (?seq=); after the journaled
// ack the window may mutate toward the next one. Re-acking is idempotent.
func (s *server) handleStreamAck(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	seq, err := intValue(r.URL.Query(), "seq", 0)
	if err != nil || seq <= 0 {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("the seq query parameter (release sequence) is required"))
		return
	}
	if err := st.Ack(r.Context(), seq); err != nil {
		s.failStream(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"stream": st.ID(), "acked": seq})
}

// handleStreamWithdraw removes rows (by the window-stable ids Append
// returned) from the window — the consent-revocation path. Journaled before
// it is acknowledged, like every other mutation.
func (s *server) handleStreamWithdraw(w http.ResponseWriter, r *http.Request) {
	st, ok := s.lookupStream(w, r)
	if !ok {
		return
	}
	var req struct {
		RowIDs []int `json:"rowIds"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.bodyLimit())).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Errorf("decoding body (want {\"rowIds\": [...]}): %w", err))
		return
	}
	if err := st.Withdraw(r.Context(), req.RowIDs); err != nil {
		s.failStream(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"stream": st.ID(), "withdrawn": len(req.RowIDs),
	})
}

func (s *server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	s.streams.mu.Lock()
	ids := make([]string, 0, len(s.streams.streams))
	for id := range s.streams.streams {
		ids = append(ids, id)
	}
	s.streams.mu.Unlock()
	s.writeJSON(w, http.StatusOK, map[string]any{"streams": ids})
}

func (s *server) lookupStream(w http.ResponseWriter, r *http.Request) (*stream.Stream, bool) {
	id, err := streamID(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return nil, false
	}
	st := s.streams.get(id)
	if st == nil {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("no stream %q; POST /stream/%s/append creates one", id, id))
		return nil, false
	}
	return st, true
}

// failStream maps the stream package's typed failures onto HTTP semantics:
// a full window is back-pressure (429 + Retry-After — release and ack to
// drain it), a pending or gate-closed release is a state conflict (409), a
// drained stream is 503, and everything else flows through the server-wide
// mapping (budget exhaustion and ENOSPC → 503, deadline → 504, ...).
func (s *server) failStream(w http.ResponseWriter, fallback int, err error) {
	var full *stream.WindowFullError
	var pend *stream.PendingReleaseError
	var gate *stream.GateClosedError
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", "1")
		s.httpError(w, http.StatusTooManyRequests,
			fmt.Errorf("stream window is full; GET the release and ack it to drain: %w", err))
	case errors.As(err, &pend):
		s.httpError(w, http.StatusConflict,
			fmt.Errorf("a release is pending publication; retry GET /release first: %w", err))
	case errors.As(err, &gate):
		s.httpError(w, http.StatusConflict, err)
	case errors.Is(err, stream.ErrClosed):
		w.Header().Set("Retry-After", "5")
		s.httpError(w, http.StatusServiceUnavailable, fmt.Errorf("stream is draining for shutdown: %w", err))
	default:
		s.failRequest(w, fallback, err)
	}
}
