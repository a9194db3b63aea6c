package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"vadasa"
	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/stream"
)

// streamRegistry owns the server's open ingestion streams: one journaled
// stream.Stream per id under -stream-dir, created lazily by the first append
// and recovered from their WALs at startup. Closing the registry drains every
// stream (each writes its checkpoint record), which is what the SIGTERM path
// relies on.
type streamRegistry struct {
	srv *server

	mu      sync.Mutex
	streams map[string]*stream.Stream
	closed  bool
}

func newStreamRegistry(srv *server) *streamRegistry {
	return &streamRegistry{srv: srv, streams: make(map[string]*stream.Stream)}
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
// silently starting a fresh window over the broken journal. The journals
// replay at once, and streams are registered and failures logged in path
// order (journal.RecoverDir).
func (r *streamRegistry) recover(ctx context.Context) error {
	dir := r.srv.cfg.streamDir
	r.mu.Lock()
	defer r.mu.Unlock()
	type recovery struct {
		path string
		s    *stream.Stream
	}
	err := journal.RecoverDir(ctx, faultfs.OS, filepath.Join(dir, "*.wal"),
		func(path string) *recovery { return &recovery{path: path} },
		func(rc *recovery) error {
			info, err := stream.Peek(ctx, faultfs.OS, rc.path)
			if err != nil {
				return fmt.Errorf("unreadable journal header, skipping: %w", err)
			}
			opts, err := r.srv.streamOptions(info)
			if err != nil {
				return fmt.Errorf("rebuilding options: %w", err)
			}
			r.srv.applyReplStream(info.ID, rc.path, &opts)
			if rc.s, err = stream.Open(ctx, info.ID, rc.path, opts); err != nil {
				return fmt.Errorf("recovery failed, skipping: %w", err)
			}
			return nil
		},
		func(rc *recovery, err error) {
			if err != nil {
				r.srv.logf("vadasad: stream %s: %v", strings.TrimSuffix(filepath.Base(rc.path), ".wal"), err)
				return
			}
			r.srv.registerReplStream(rc.s, rc.path)
			r.streams[rc.s.ID()] = rc.s
		})
	if err != nil {
		return fmt.Errorf("recovering streams: %w", err)
	}
	if len(r.streams) > 0 {
		r.srv.logf("vadasad: recovered %d stream(s) from %s", len(r.streams), dir)
	}
	return nil
}

// newStreamOptions is what every stream and every standby replay view of this
// server opens with: the given measure plus the server-wide window bound,
// governor, headroom and log sink.
func (s *server) newStreamOptions(m vadasa.RiskMeasure) stream.Options {
	return stream.Options{
		Assessor:     m,
		MaxRows:      s.cfg.streamMaxRows,
		Governor:     s.govern,
		DiskHeadroom: s.cfg.diskHeadroom,
		Logf:         s.logf,
	}
}

// streamOptions rebuilds a journaled stream's Options from its header:
// schema, threshold and semantics come straight from the create record; the
// assessor is rebuilt from the measure parameters the server stored in Meta
// at creation. Startup recovery and the standby's replay views both open
// through it, so a follower's risk state is computed by the same code that
// will own the stream after a promotion.
func (s *server) streamOptions(info *stream.Info) (stream.Options, error) {
	var meta streamMeta
	if err := json.Unmarshal(info.Meta, &meta); err != nil {
		return stream.Options{}, fmt.Errorf("decoding journaled measure parameters: %w", err)
	}
	params, err := url.ParseQuery(meta.Params)
	if err != nil {
		return stream.Options{}, fmt.Errorf("parsing journaled measure parameters: %w", err)
	}
	m, err := s.measureFromValues(params)
	if err != nil {
		return stream.Options{}, err
	}
	opts := s.newStreamOptions(m)
	opts.Threshold, opts.Semantics, opts.Attrs, opts.Meta = info.Threshold, info.Semantics, info.Attrs, info.Meta
	return opts, nil
}

// ids lists the open streams in sorted order, as a standby lists its
// followers.
func (r *streamRegistry) ids() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.streams))
	for id := range r.streams {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// get returns the open stream id, or nil.
func (r *streamRegistry) get(id string) *stream.Stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streams[id]
}

// create opens a fresh stream under the registry, categorizing the header
// names of its first batch to a schema exactly like the synchronous endpoints
// do. A concurrent create of the same id loses the race idempotently: the
// winner's stream is returned.
func (r *streamRegistry) create(ctx context.Context, id string, names []string, q url.Values) (*stream.Stream, error) {
	attrs, _ := r.srv.framework.Schema(names, overridesFromValues(q))
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
	for _, p := range risk.Params {
		if v := q.Get(p.Key); v != "" {
			meta.Set(p.Key, v)
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
	path := filepath.Join(r.srv.cfg.streamDir, id+".wal")
	opts := r.srv.newStreamOptions(m)
	opts.Threshold, opts.Semantics, opts.Attrs, opts.Meta = threshold, sem, attrs, metaJSON
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
			r.srv.logf("vadasad: draining stream %s: %v", id, err)
		}
		r.srv.unregisterReplStream(id)
	}
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

// parseBatchCSV splits the request body, in one pass, into the header names
// (read as every intake path reads them) and the raw row cells, each row as
// wide as the header. The cells stay strings: the stream journals them
// verbatim, and replay re-parses them exactly as the live path did. They are
// substrings of body, which the window's values keep alive as
// mdb.ParseCSVRecords says.
func parseBatchCSV(body []byte) (names []string, rows [][]string, err error) {
	if len(body) == 0 {
		return nil, nil, fmt.Errorf("empty body; POST a CSV with a header row")
	}
	if names, rows, err = mdb.ParseCSVRecords(body); err != nil {
		return nil, nil, fmt.Errorf("parsing CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("body has no data rows")
	}
	return names, rows, nil
}

// handleStreamAppend ingests one batch into the stream, creating the stream
// on first contact (the CSV header is categorized to a schema exactly like
// the synchronous endpoints; id/qi/weight query overrides apply). The batch
// is journaled and fsync'd before the 200 goes out — an acknowledged batch
// survives any crash. ?batch= is the mandatory idempotency key: retrying an
// acknowledged batch returns duplicate=true without re-applying it.
func (s *server) handleStreamAppend(w http.ResponseWriter, r *http.Request) error {
	id, err := streamID(r)
	if err != nil {
		return badRequest(err)
	}
	batch := r.URL.Query().Get("batch")
	if batch == "" {
		return badRequest(fmt.Errorf("the batch query parameter (idempotency key) is required"))
	}
	body, err := s.readBody(w, r)
	if err != nil {
		return badRequest(err)
	}
	names, rows, err := parseBatchCSV(body)
	if err != nil {
		return badRequest(err)
	}

	st := s.streams().get(id)
	created := st == nil
	if created {
		if err := checkCells(int64(len(rows)), int64(len(names)), s.cfg.maxCells); err != nil {
			return badRequest(err)
		}
		if st, err = s.streams().create(r.Context(), id, names, r.URL.Query()); err != nil {
			return badRequest(err)
		}
	}
	attrs := st.Attrs()
	if len(names) != len(attrs) {
		return badRequest(fmt.Errorf("batch has %d columns, stream %s has %d", len(names), id, len(attrs)))
	}
	for i, a := range attrs {
		if names[i] != a.Name {
			return badRequest(fmt.Errorf("batch column %d is %q, stream %s expects %q", i, names[i], id, a.Name))
		}
	}

	res, err := st.Append(r.Context(), batch, rows)
	if err != nil {
		return badRequest(err)
	}
	out := struct {
		Stream string `json:"stream"`
		*stream.AppendResult
	}{id, res}
	if created {
		w.Header().Set("Location", "/stream/"+id+"/status")
		return s.writeJSON(w, http.StatusCreated, out)
	}
	return s.writeJSON(w, http.StatusOK, out)
}

// releaseBody is the answer of GET /stream/{id}/release, on either role.
type releaseBody struct {
	Stream  string              `json:"stream"`
	Standby bool                `json:"standby,omitempty"`
	Release *stream.ReleaseInfo `json:"release"`
	CSV     string              `json:"csv"`
}

// handleStreamRelease drives the release gate: anonymize the window until
// every tuple clears the threshold, publish the snapshot under the
// intent→publish protocol, and serve the bytes. An already-published, unacked
// release is re-served unchanged — the client acks when it has the bytes.
func (s *server) handleStreamRelease(w http.ResponseWriter, r *http.Request) error {
	st, err := s.lookupStream(r)
	if err != nil {
		return err
	}
	info, err := st.Release(r.Context())
	if err != nil {
		return unprocessable(err)
	}
	b, err := st.ReleaseBytes(info)
	if err != nil {
		return err
	}
	return s.writeJSON(w, http.StatusOK, releaseBody{Stream: st.ID(), Release: info, CSV: string(b)})
}

// handleStandbyRelease serves the currently published (unacked) release of
// a mirrored stream, digest-verified against the primary's journaled
// intent — the read-only availability a warm standby buys. It never
// publishes: with no release in flight it answers 409 and points at the
// primary.
func (s *server) handleStandbyRelease(w http.ResponseWriter, r *http.Request) error {
	fol, err := s.lookupFollower(r)
	if err != nil {
		return err
	}
	info := fol.Published()
	if info == nil {
		return conflict(fmt.Errorf("no release is currently published; releases are gated on the primary"))
	}
	b, err := fol.ReleaseBytes()
	if err != nil {
		return err
	}
	return s.writeJSON(w, http.StatusOK, releaseBody{Stream: fol.ID(), Standby: true, Release: info, CSV: string(b)})
}

// handleStreamAck retires a published release (?seq=); after the journaled
// ack the window may mutate toward the next one. Re-acking is idempotent.
func (s *server) handleStreamAck(w http.ResponseWriter, r *http.Request) error {
	st, err := s.lookupStream(r)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	seq, err := intValue(q, "seq", 0)
	switch {
	case err != nil:
		return badRequest(err)
	case q.Get("seq") == "":
		return badRequest(fmt.Errorf("the seq query parameter (release sequence) is required"))
	case seq <= 0:
		return badRequest(fmt.Errorf("the seq parameter (release sequence) must be positive, got %d", seq))
	}
	if err := st.Ack(r.Context(), seq); err != nil {
		return conflict(err)
	}
	return s.writeJSON(w, http.StatusOK, map[string]any{"stream": st.ID(), "acked": seq})
}

// handleStreamWithdraw removes rows (by the window-stable ids Append
// returned) from the window — the consent-revocation path. Journaled before
// it is acknowledged, like every other mutation.
func (s *server) handleStreamWithdraw(w http.ResponseWriter, r *http.Request) error {
	st, err := s.lookupStream(r)
	if err != nil {
		return err
	}
	body, err := s.readBody(w, r)
	if err != nil {
		return badRequest(err)
	}
	var req struct {
		RowIDs []int `json:"rowIds"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return badRequest(fmt.Errorf("decoding body (want {\"rowIds\": [...]}): %w", err))
	}
	if err := st.Withdraw(r.Context(), req.RowIDs); err != nil {
		return badRequest(err)
	}
	return s.writeJSON(w, http.StatusOK, map[string]any{
		"stream": st.ID(), "withdrawn": len(req.RowIDs),
	})
}

// streamView is what listing and status need of a stream. The live stream
// and, on a standby, the replay view over its mirrored WAL both provide it.
type streamView interface {
	ID() string
	Status(ctx context.Context) stream.Status
}

// handleStreamList lists the open streams — on a standby, the mirrored ones
// that currently have a replay view.
func (s *server) handleStreamList(w http.ResponseWriter, r *http.Request) error {
	standby := s.unpromoted()
	ids := []string{}
	if standby {
		for _, fol := range s.repl.standby.Followers() {
			ids = append(ids, fol.ID())
		}
	} else {
		ids = s.streams().ids()
	}
	return s.writeJSON(w, http.StatusOK, struct {
		Standby bool     `json:"standby,omitempty"`
		Streams []string `json:"streams"`
	}{standby, ids})
}

// handleStreamStatus reports the stream's point-in-time counters.
func (s *server) handleStreamStatus(w http.ResponseWriter, r *http.Request) error {
	standby := s.unpromoted()
	var v streamView
	var err error
	if standby {
		v, err = s.lookupFollower(r)
	} else {
		v, err = s.lookupStream(r)
	}
	if err != nil {
		return err
	}
	return s.writeJSON(w, http.StatusOK, struct {
		Stream  string `json:"stream"`
		Standby bool   `json:"standby,omitempty"`
		stream.Status
	}{v.ID(), standby, v.Status(r.Context())})
}

func (s *server) lookupStream(r *http.Request) (*stream.Stream, error) {
	id, err := streamID(r)
	if err != nil {
		return nil, badRequest(err)
	}
	st := s.streams().get(id)
	if st == nil {
		return nil, notFound(fmt.Errorf("no stream %q; POST /stream/%s/append creates one", id, id))
	}
	return st, nil
}

func (s *server) lookupFollower(r *http.Request) (*stream.Follower, error) {
	id, err := streamID(r)
	if err != nil {
		return nil, badRequest(err)
	}
	fol := s.repl.standby.Follower("stream/" + id)
	if fol == nil {
		return nil, notFound(fmt.Errorf("no mirrored stream %q on this standby", id))
	}
	return fol, nil
}
