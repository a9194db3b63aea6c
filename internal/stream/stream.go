// Package stream implements crash-consistent streaming anonymization: a
// long-running ingestion window over the anonymization cycle's primitives,
// with the journal as the single source of truth.
//
// Every state transition is journaled before it is acknowledged (write-ahead
// ack): an accepted batch, a withdrawal, every suppression the release gate
// applies, and the release protocol itself. Risk is read off a risk.Live
// view of the window: appends and withdrawals only feed it their rows, and
// the window is scored when it is read — by Status, the release gate and
// Digest — from a maintained group index when the measure implements
// risk.IncrementalAssessor, one-shot otherwise (SUDA, cluster); bit-identical
// to a full recompute over the current row set either way.
//
// A release is gated: it is produced only when every tuple in the window
// clears the threshold T, and published under an intent → publish → ack
// protocol. The intent record carries the digest of the exact bytes to be
// published; the publish record commits the publication; the ack record
// retires it. Recovery replays the journal to a state bit-identical to an
// uninterrupted run — a release interrupted between intent and publish is
// completed deterministically (the replayed window regenerates the same
// bytes, checked against the intent digest), an acked release is never
// re-published, and an acked batch is never lost.
package stream

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// Journal record types of a stream WAL (see DESIGN.md §13 for the
// protocol).
const (
	// recCreate is the first record: schema, threshold, semantics and the
	// caller's opaque metadata (the server journals the measure parameters
	// there so recovery can rebuild the assessor).
	recCreate journal.Type = "create"
	// recBatch commits one accepted ingestion batch — appended and fsync'd
	// before the append is acknowledged to the client.
	recBatch journal.Type = "batch"
	// recWithdraw removes rows (by ID) from the window.
	recWithdraw journal.Type = "withdraw"
	// recAnon commits one release-gate suppression iteration.
	recAnon journal.Type = "anon"
	// recIntent declares a release: sequence number, window size and the
	// SHA-256 of the exact bytes to be published.
	recIntent journal.Type = "intent"
	// recPublish commits the publication: the release file is durable.
	recPublish journal.Type = "publish"
	// recAck retires a published release; the next release opens a new
	// window snapshot.
	recAck journal.Type = "ack"
	// recCheckpoint marks a clean drain (SIGTERM) with counter snapshots.
	recCheckpoint journal.Type = "checkpoint"
)

// Options parameterizes a stream. Zero values select production defaults.
type Options struct {
	// Assessor scores tuples; when it implements risk.IncrementalAssessor
	// a read of the window re-scores the groups its mutations disturbed,
	// otherwise it reassesses the window in full. Required.
	Assessor risk.Assessor
	// Threshold is T: the release gate opens only when every tuple's risk
	// is <= T. Required (> 0).
	Threshold float64
	// Semantics is the labelled-null semantics of the window.
	Semantics mdb.Semantics
	// Attrs is the window schema. Required when creating; on reopen it is
	// checked against the journaled schema if non-nil, adopted from the
	// journal if nil.
	Attrs []mdb.Attribute
	// Meta is opaque caller metadata journaled in the create record and
	// surfaced by Peek — the server stores measure parameters here.
	Meta json.RawMessage
	// MaxRows bounds the in-memory window (0 = 100000). An append that
	// would exceed it fails with a WindowFullError.
	MaxRows int
	// Governor, when non-nil, is charged for the window and the group
	// index; a refused index budget degrades the stream to one-shot scoring
	// instead of failing the read, and every later read retries the index.
	Governor *govern.Governor
	// FS is the filesystem (nil = the real one); tests inject
	// faultfs.Faulty.
	FS faultfs.FS
	// DiskHeadroom is the journal's pre-append free-space floor.
	DiskHeadroom int64
	// FenceCheck, when non-nil, guards every client-visible mutation and
	// the publish commit point: it is consulted before Append, Withdraw,
	// Release and Ack touch the journal, and again inside completePending
	// before the publish record is committed. The replication layer
	// installs the node's epoch fence here, so a demoted primary's writes
	// fail with its typed fencing error instead of double-publishing a
	// release the promoted standby already owns.
	FenceCheck func() error
	// OnAppend is threaded into the journal writer's configuration: it
	// observes every committed record (sequence number plus the exact
	// framed line, newline stripped) after the local fsync but before the
	// commit point advances. The replication layer installs its shipper
	// here; in synchronous mode the hook's error fails the append and the
	// journal truncates the unreplicated record away.
	OnAppend func(seq int, line []byte) error
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) maxRows() int {
	if o.MaxRows > 0 {
		return o.MaxRows
	}
	return 100_000
}

// ReleaseInfo describes one published release.
type ReleaseInfo struct {
	// Seq is the release sequence number (1-based).
	Seq int `json:"seq"`
	// File is the release file's name within the stream directory.
	File string `json:"file"`
	// Path is the full on-disk path.
	Path string `json:"path"`
	// Digest is the SHA-256 of the file's bytes, hex-encoded.
	Digest string `json:"digest"`
	// Rows is the window size the release snapshot covers.
	Rows int `json:"rows"`
	// Suppressions counts the suppression decisions journaled for this
	// release's gate.
	Suppressions int `json:"suppressions"`
}

// Status is a point-in-time snapshot of a stream.
type Status struct {
	Rows      int    `json:"rows"`
	Batches   int    `json:"batches"`
	Withdrawn int    `json:"withdrawnRows"`
	Releases  int    `json:"releases"`
	Acked     int    `json:"acked"`
	Mode      string `json:"mode"` // "incremental" or "full"
	// RiskCurrent reports whether OverThreshold reflects the present
	// window: false only when the stream is closed or scoring it failed.
	RiskCurrent   bool         `json:"riskCurrent"`
	OverThreshold int          `json:"overThreshold"`
	PendingIntent int          `json:"pendingIntent,omitempty"`
	Published     *ReleaseInfo `json:"published,omitempty"`
	Closed        bool         `json:"closed"`
}

// AppendResult acknowledges an accepted (journaled) batch.
type AppendResult struct {
	// RowIDs are the window-stable IDs assigned to the batch's rows, in
	// input order (withdrawals and decisions reference these).
	RowIDs []int `json:"rowIds"`
	// Rows is the window size after the append.
	Rows int `json:"rows"`
	// Duplicate reports an idempotent replay: the batch ID was already
	// journaled, nothing was re-applied.
	Duplicate bool `json:"duplicate,omitempty"`
}

// GateClosedError: the release gate refused to publish because tuples
// remain over threshold after the suppression loop ran out of moves.
type GateClosedError struct {
	Residual int
}

func (e *GateClosedError) Error() string {
	return fmt.Sprintf("stream: release gate closed: %d tuples remain over threshold with no anonymization step left", e.Residual)
}

// WindowFullError: the append would exceed the bounded in-memory window.
type WindowFullError struct {
	Rows, Adding, Max int
}

func (e *WindowFullError) Error() string {
	return fmt.Sprintf("stream: window holds %d rows; adding %d exceeds the %d-row bound", e.Rows, e.Adding, e.Max)
}

// PendingReleaseError: mutations are rejected while a journaled intent
// awaits its publish record — the window must stay exactly the intent's
// snapshot until the publication completes.
type PendingReleaseError struct {
	Release int
}

func (e *PendingReleaseError) Error() string {
	return fmt.Sprintf("stream: release %d has a journaled intent awaiting publication; retry the release first", e.Release)
}

// ErrClosed rejects operations on a drained stream.
var ErrClosed = fmt.Errorf("stream: closed")

// Stream is one crash-consistent ingestion window. All methods are safe for
// concurrent use; the journal serializes state transitions.
type Stream struct {
	mu   sync.Mutex
	id   string
	path string
	dir  string
	opts Options
	fs   faultfs.FS
	gov  *govern.Governor
	w    *journal.Writer

	// Row IDs are minted from nextID at the tail and nothing reorders
	// d.Rows, so IDs ascend strictly with position: position resolves an ID
	// by binary search, and deletions never disturb the order.
	d       *mdb.Dataset
	nextID  int
	batches map[string]bool
	nbatch  int
	ndrop   int

	// live scores the window; it watches the window from the end of replay
	// on. degraded means the measure has an incremental path but the
	// governor refused its index, so live has indexing switched off until a
	// read finds the budget again.
	live     *risk.Live
	degraded bool

	// Release protocol state.
	relSeq    int
	relBytes  []byte // pending release bytes, regenerated on recovery
	pending   *intentPayload
	pendSupp  int
	published *ReleaseInfo
	releases  int
	acked     int
	closed    bool

	memCharged int64
}

// newStream checks opts and lays out a stream with nothing replayed into it
// yet — the start of Open and of OpenFollower.
func newStream(id, path string, opts Options) (*Stream, error) {
	if opts.Assessor == nil {
		return nil, fmt.Errorf("stream: Options.Assessor is required")
	}
	if opts.Threshold <= 0 {
		return nil, fmt.Errorf("stream: Options.Threshold must be positive, got %g", opts.Threshold)
	}
	s := &Stream{
		id:      id,
		path:    path,
		dir:     filepath.Dir(path),
		opts:    opts,
		fs:      opts.FS,
		gov:     opts.Governor,
		batches: make(map[string]bool),
	}
	if s.fs == nil {
		s.fs = faultfs.OS
	}
	return s, nil
}

// Open opens the stream journaled at path, creating it if the journal is
// fresh (missing, or cut short inside its very first append — see package
// journal), or replaying it to the pre-crash state otherwise. id names the
// stream (it must match the journaled name on reopen); a release interrupted
// between its intent and publish records is completed before Open returns.
func Open(ctx context.Context, id, path string, opts Options) (_ *Stream, err error) {
	s, err := newStream(id, path, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			// A stream that does not open holds nothing: what its replay
			// reserved goes back, so a recovery the budget refuses leaves
			// the budget to the streams that do open.
			s.gov.ReleaseBytes(s.memCharged)
			if s.live != nil {
				s.live.Close()
			}
		}
	}()
	cfg := journal.Config{FS: s.fs, DiskHeadroom: opts.DiskHeadroom, OnAppend: opts.OnAppend}
	w, err := journal.Open(ctx, path, cfg, s.replay)
	if err != nil {
		return nil, fmt.Errorf("stream %s: opening journal: %w", id, err)
	}
	s.w = w
	if w.Seq() == 0 {
		// Fresh journal — a new id, or one whose first append a crash cut
		// short before anything was acknowledged: the create record is the
		// schema's durability point.
		if err := s.create(); err != nil {
			w.Close()
			s.fs.Remove(path)
			return nil, err
		}
	}
	s.live = risk.NewLive(opts.Assessor, s.d, s.opts.Semantics, s.gov)
	return s.recovered(ctx)
}

// create journals the stream definition as the first record.
func (s *Stream) create() error {
	if len(s.opts.Attrs) == 0 {
		return fmt.Errorf("stream: Options.Attrs is required to create a stream")
	}
	// Checked here, not in newStream: a stream journaled before the check
	// existed still reopens. No risk exceeds a threshold above 1 and none
	// compares with NaN, so the gate of such a stream never closes.
	if !risk.Probability(s.opts.Threshold) {
		return fmt.Errorf("stream: Options.Threshold %g outside (0,1]", s.opts.Threshold)
	}
	s.d = mdb.NewDataset(s.id, s.opts.Attrs)
	// Nothing downstream checks the schema again: batches are validated
	// against it, never it against anything.
	if err := s.d.Validate(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if len(s.d.QuasiIdentifiers()) == 0 {
		return fmt.Errorf("stream: schema has no quasi-identifiers to anonymize")
	}
	return s.w.Append(recCreate, makeCreatePayload(s.id, s.opts))
}

func (s *Stream) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// checkFence consults the installed epoch fence (nil means unfenced). It
// runs under s.mu, before the journal sees the mutation, so a demoted
// primary refuses writes without leaving anything to repair.
func (s *Stream) checkFence() error {
	if s.opts.FenceCheck == nil {
		return nil
	}
	return s.opts.FenceCheck()
}

// JournalSeq returns the sequence number of the last committed journal
// record — the tail position a replication shipper registers for this log.
func (s *Stream) JournalSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Seq()
}

// Append journals and admits one ingestion batch. Every cell must be a
// constant (labelled-null tokens are rejected — nulls enter the window only
// through gated suppressions); the weight column, when the schema has one,
// must parse as a float. The batch is fsync'd to the journal before any
// in-memory state changes, so a crash after Append returns can never lose
// it. batchID de-duplicates retries: a batch ID already journaled is
// acknowledged again without being re-applied.
func (s *Stream) Append(ctx context.Context, batchID string, rows [][]string) (*AppendResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.checkFence(); err != nil {
		return nil, err
	}
	if s.pending != nil {
		return nil, &PendingReleaseError{Release: s.pending.Release}
	}
	if batchID == "" {
		return nil, fmt.Errorf("stream: batch ID is required (idempotency key)")
	}
	if s.batches[batchID] {
		return &AppendResult{Rows: len(s.d.Rows), Duplicate: true}, nil
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("stream: empty batch")
	}
	if len(s.d.Rows)+len(rows) > s.opts.maxRows() {
		return nil, &WindowFullError{Rows: len(s.d.Rows), Adding: len(rows), Max: s.opts.maxRows()}
	}
	if err := s.validateBatch(rows); err != nil {
		return nil, err
	}
	bytes := batchBytes(rows)
	//governcharge:ok — refunded row by row by applyWithdraw, the rest in bulk by Close
	if err := s.gov.ReserveBytes(bytes); err != nil {
		return nil, fmt.Errorf("stream: admitting batch: %w", err)
	}
	// Write-ahead ack: the journal append is the commit point.
	if err := s.w.Append(recBatch, batchPayload{BatchID: batchID, Rows: rows}); err != nil {
		s.gov.ReleaseBytes(bytes)
		return nil, err
	}
	s.memCharged += bytes
	ids := s.applyBatch(batchID, rows)
	s.fed(s.live.Appended())
	return &AppendResult{RowIDs: ids, Rows: len(s.d.Rows)}, nil
}

// validateBatch rejects rows the journaled replay could not reproduce
// exactly — wrong arity, labelled-null tokens — and weights mdb.ParseWeight
// refuses.
func (s *Stream) validateBatch(rows [][]string) error {
	w := s.d.WeightIndex()
	var scratch mdb.NullAllocator
	for i, r := range rows {
		if len(r) != len(s.d.Attrs) {
			return fmt.Errorf("stream: batch row %d has %d fields, schema has %d", i, len(r), len(s.d.Attrs))
		}
		for j, cell := range r {
			if mdb.ParseValue(cell, &scratch).IsNull() {
				// The offending cell is client-supplied microdata; digest it
				// rather than echo it into an error that reaches server logs.
				return fmt.Errorf("stream: batch row %d: %s is a labelled-null token (%s); appended rows must be constants", i, s.d.Attrs[j].Name, mdb.RedactString(cell))
			}
		}
		if w >= 0 {
			if _, err := mdb.ParseWeight(r[w]); err != nil {
				return fmt.Errorf("stream: batch row %d: %w", i, err)
			}
		}
	}
	return nil
}

// applyBatch replays a journaled batch into the window — the single code
// path shared by live appends and recovery, which is what makes a recovered
// window bit-identical to the uninterrupted one.
func (s *Stream) applyBatch(batchID string, rows [][]string) []int {
	w := s.d.WeightIndex()
	ids := make([]int, 0, len(rows))
	for _, r := range rows {
		vals := make([]mdb.Value, len(r))
		for j, cell := range r {
			vals[j] = mdb.ParseValue(cell, &s.d.Nulls)
		}
		row := &mdb.Row{Values: vals}
		if w >= 0 {
			// Not mdb.ParseWeight: a batch journaled before validateBatch
			// applied the weight rule replays as it was acknowledged.
			row.Weight, _ = strconv.ParseFloat(r[w], 64)
		}
		s.nextID++
		row.ID = s.nextID
		s.d.Append(row)
		ids = append(ids, row.ID)
	}
	s.batches[batchID] = true
	s.nbatch++
	return ids
}

// Withdraw journals and applies the removal of rows (by window-stable ID).
// Like Append, the journal record is fsync'd before any state changes.
func (s *Stream) Withdraw(ctx context.Context, rowIDs []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.checkFence(); err != nil {
		return err
	}
	if s.pending != nil {
		return &PendingReleaseError{Release: s.pending.Release}
	}
	if len(rowIDs) == 0 {
		return fmt.Errorf("stream: no rows to withdraw")
	}
	seen := make(map[int]bool, len(rowIDs))
	for _, id := range rowIDs {
		if _, ok := s.position(id); !ok {
			return fmt.Errorf("stream: row %d is not in the window", id)
		}
		if seen[id] {
			return fmt.Errorf("stream: row %d withdrawn twice in one call", id)
		}
		seen[id] = true
	}
	if err := s.w.Append(recWithdraw, withdrawPayload{RowIDs: rowIDs}); err != nil {
		return err
	}
	positions, err := s.applyWithdraw(rowIDs)
	if err != nil {
		return err
	}
	s.fed(s.live.Deleted(positions))
	return nil
}

// position resolves a row ID to its current window position.
func (s *Stream) position(id int) (int, bool) {
	return slices.BinarySearchFunc(s.d.Rows, id, func(r *mdb.Row, id int) int { return cmp.Compare(r.ID, id) })
}

// applyWithdraw removes the rows — shared by the live path and recovery —
// and returns the positions they stood at, ascending. The ids may come in
// any order; the whole withdrawal is one sweep over the window and refunds
// the governor what the rows' batches were charged for them.
func (s *Stream) applyWithdraw(rowIDs []int) ([]int, error) {
	positions := make([]int, len(rowIDs))
	for i, id := range rowIDs {
		pos, ok := s.position(id)
		if !ok {
			return nil, fmt.Errorf("stream: journaled withdrawal of unknown row %d", id)
		}
		positions[i] = pos
	}
	slices.Sort(positions)
	var refund int64
	for i, pos := range positions {
		if i > 0 && pos == positions[i-1] {
			// A repeated id: applied one by one, its second mention would
			// find the row already gone.
			return nil, fmt.Errorf("stream: journaled withdrawal of unknown row %d", s.d.Rows[pos].ID)
		}
		refund += rowBytes(s.d.Rows[pos])
	}
	s.d.Rows = mdb.RemovePositions(s.d.Rows, positions)
	s.ndrop += len(positions)
	// Suppressions change cell lengths, so a row can stand larger than it
	// was charged: never refund more than the window holds.
	refund = min(refund, s.memCharged)
	s.gov.ReleaseBytes(refund)
	s.memCharged -= refund
	return positions, nil
}

// fed handles what the risk view said to a window mutation's delta: an index
// that could not absorb it is invalidated, and the next read rebuilds it.
// Nothing is scored here.
func (s *Stream) fed(err error) {
	if err != nil {
		s.logf("stream %s: index maintenance: %v; rebuilding", s.id, err)
		s.live.Invalidate()
	}
}

// currentRisks returns the risk vector of the present window: the one place
// a stream scores. A governor refusing the index degrades the stream to
// one-shot scoring with indexing off; a degraded stream retries the index at
// every read, so a cleared budget restores it.
func (s *Stream) currentRisks(ctx context.Context) ([]float64, error) {
	if s.degraded {
		s.live.SetIndexing(true)
	}
	risks, err := s.live.Risks(ctx)
	var refused *govern.ErrBudgetExceeded
	if errors.As(err, &refused) && s.live.Incremental() {
		if !s.degraded {
			s.logf("stream %s: incremental path refused: %v; scoring one-shot", s.id, err)
		}
		s.degraded = true
		s.live.SetIndexing(false)
		return s.live.Risks(ctx)
	}
	if s.degraded && err == nil {
		s.degraded = false
		s.logf("stream %s: incremental path restored", s.id)
	}
	return risks, err
}

// Status reports the stream's current state without touching the journal,
// scoring the window unless the stream is closed.
func (s *Stream) Status(ctx context.Context) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Rows:      len(s.d.Rows),
		Batches:   s.nbatch,
		Withdrawn: s.ndrop,
		Releases:  s.releases,
		Acked:     s.acked,
		Mode:      "incremental",
		Closed:    s.closed,
		Published: s.published,
	}
	if s.pending != nil {
		st.PendingIntent = s.pending.Release
	}
	if !s.closed {
		risks, err := s.currentRisks(ctx)
		if err != nil {
			s.logf("stream %s: scoring the window: %v", s.id, err)
		}
		st.RiskCurrent = err == nil
		for _, r := range risks {
			if r > s.opts.Threshold {
				st.OverThreshold++
			}
		}
	}
	if !s.live.Incremental() {
		st.Mode = "full"
	}
	return st
}

// Meta returns the opaque metadata journaled at creation.
func (s *Stream) Meta() json.RawMessage { return s.opts.Meta }

// Attrs returns the window schema (the journaled attribute list). Callers
// must not mutate it.
func (s *Stream) Attrs() []mdb.Attribute {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Attrs
}

// ID returns the stream's name.
func (s *Stream) ID() string { return s.id }

// Close drains the stream: a checkpoint record marks the clean shutdown
// (mid-window state is already durable — every accepted mutation was
// journaled before it was acknowledged), the journal is closed, and the
// governor charges are refunded. Close is idempotent.
func (s *Stream) Close(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	// Best effort: the checkpoint is a drain marker, not a durability
	// requirement — a failed append must not block shutdown.
	if err := s.w.Append(recCheckpoint, checkpointPayload{
		Batches: s.nbatch, Rows: len(s.d.Rows), Releases: s.releases, Acked: s.acked,
	}); err != nil {
		s.logf("stream %s: drain checkpoint: %v", s.id, err)
	}
	err := s.w.Close()
	s.live.Close()
	s.gov.ReleaseBytes(s.memCharged)
	s.memCharged = 0
	return err
}

// releaseFileName names release seq's CSV next to the journal.
func (s *Stream) releaseFileName(seq int) string {
	base := strings.TrimSuffix(filepath.Base(s.path), ".wal")
	return fmt.Sprintf("%s.release-%d.csv", base, seq)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
