package replica

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"vadasa/internal/faultfs"
	"vadasa/internal/govern"
	"vadasa/internal/journal"
	"vadasa/internal/stream"
)

// Root maps a log namespace to a local directory: a frame for
// "<root>/<name>" lands in Dir/<name><Ext>. The extensions mirror the
// primary's layout — stream WALs are "<id>.wal", job journals are
// "<id>.journal" — so a promoted standby's files are exactly where the
// normal startup recovery expects them.
type Root struct {
	Dir string
	Ext string
}

// StandbyOptions tunes a Standby. Node and Roots are required.
type StandbyOptions struct {
	// Node is the fencing authority.
	Node *Node
	// Roots maps log namespaces ("stream", "jobs") to local directories.
	Roots map[string]Root
	// FollowerOptions rebuilds a mirrored stream's Options from its create
	// record — on a server, what startup recovery opens streams with — so
	// the standby builds each replay view of a log under FollowRoot and
	// feeds it the records it reads or receives.
	FollowerOptions func(*stream.Info) (stream.Options, error)
	// OpenFollower, used without FollowerOptions, builds a replay view by
	// replaying a mirror itself. With neither the standby mirrors bytes only
	// (still enough for a byte-identical promotion; divergence detection
	// and read-only serving need the follower).
	OpenFollower func(ctx context.Context, id, path string) (*stream.Follower, error)
	// FollowRoot is the namespace whose logs get followers ("stream").
	FollowRoot string
	// FS is the filesystem mirrored journals are written through.
	FS faultfs.FS
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// flog is one mirrored journal on the standby.
type flog struct {
	name     string // "<root>/<name>"
	id       string // bare name
	root     string
	path     string
	w        *journal.Writer // w.Seq() is the last durable, contiguous sequence
	follower *stream.Follower
	// materialized is the release sequence whose file was last regenerated
	// next to the mirror (release files do not ship; see materializeLocked).
	materialized int
	diverged     bool
	lastErr      string
	// rebuild is set when the governor refused the follower: the refusal
	// may clear, so the next shipment replays the mirror again. Any other
	// failure would recur on every replay of the same records.
	rebuild bool
}

// logName validates the bare log identifier inside a namespace: the same
// shape the server allows for stream IDs and job IDs, and in particular
// nothing that can escape the root directory.
var logName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,127}$`)

// Standby receives shipments: it validates every frame with the journal's
// own framing rules, appends it to the mirrored file, fsyncs once per log
// per shipment, and only then acknowledges and feeds the record to the
// log's follower. The mirrored files are the real recovery substrate —
// Promote closes the followers and the normal startup recovery path takes
// over, byte-for-byte on the same WALs the primary wrote.
type Standby struct {
	opts StandbyOptions
	fs   faultfs.FS

	mu       sync.Mutex
	logs     map[string]*flog
	promoted bool
	closed   bool
	lastShip time.Time
	shipFrom string
	frames   int64 // total frames accepted
}

// NewStandby builds a standby receiver.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	if opts.Node == nil {
		return nil, fmt.Errorf("replica: StandbyOptions.Node is required")
	}
	if len(opts.Roots) == 0 {
		return nil, fmt.Errorf("replica: StandbyOptions.Roots is required")
	}
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS
	}
	for name, r := range opts.Roots {
		if err := fs.MkdirAll(r.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("replica: creating %s root: %w", name, err)
		}
	}
	return &Standby{opts: opts, fs: fs, logs: make(map[string]*flog)}, nil
}

func (sb *Standby) logf(format string, args ...any) {
	if sb.opts.Logf != nil {
		sb.opts.Logf(format, args...)
	}
}

// Recover reopens every mirrored journal found under the roots — a
// restarting standby resumes exactly where its files left off, including
// repairing torn tails from a crash mid-append. A root's mirrors open at
// once (journal.RecoverDir) with sb.mu held, so no shipment opens a second
// writer on a mirror being repaired; recovery runs before the standby serves.
func (sb *Standby) Recover(ctx context.Context) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for rootName, root := range sb.opts.Roots {
		err := journal.RecoverDir(ctx, sb.fs, filepath.Join(root.Dir, "*"+root.Ext),
			func(path string) *flog {
				fl, err := sb.mirror(rootName, strings.TrimSuffix(filepath.Base(path), root.Ext))
				if err != nil || filepath.Base(path) == NodeJournalName || sb.logs[fl.name] != nil {
					return nil
				}
				return fl
			},
			func(fl *flog) error { return sb.openLocked(ctx, fl) },
			func(fl *flog, err error) {
				if err != nil {
					sb.logf("replica: recovering mirror %s: %v", fl.name, err)
					return
				}
				sb.logs[fl.name] = fl
			})
		if err != nil {
			return fmt.Errorf("replica: scanning %s root: %w", rootName, err)
		}
	}
	return nil
}

// mirror lays out the mirrored journal of one log, not yet opened.
func (sb *Standby) mirror(rootName, id string) (*flog, error) {
	root, ok := sb.opts.Roots[rootName]
	if !ok {
		return nil, fmt.Errorf("replica: unknown log root %q", rootName)
	}
	if !logName.MatchString(id) {
		return nil, fmt.Errorf("replica: invalid log name %q", id)
	}
	return &flog{name: rootName + "/" + id, id: id, root: rootName, path: filepath.Join(root.Dir, id+root.Ext)}, nil
}

// openLocked opens (or creates) fl's mirrored journal — journal.Open finds
// the durable sequence floor and drops a torn tail — and feeds the records
// it reads to fl's follower. A follower that fails is dropped, never the
// mirror. It touches nothing of sb but fl, so mirrors open concurrently.
func (sb *Standby) openLocked(ctx context.Context, fl *flog) error {
	w, err := journal.Open(ctx, fl.path, journal.Config{FS: sb.fs}, func(rec journal.Record) error {
		if err := sb.follow(ctx, fl, rec); err != nil {
			sb.dropFollower(fl, err)
		}
		return nil
	})
	if err != nil {
		sb.dropFollower(fl, nil)
		return fmt.Errorf("replica: opening mirror: %w", err)
	}
	fl.w = w
	sb.materializeLocked(fl)
	return nil
}

// follows reports whether fl's log gets a follower.
func (sb *Standby) follows(fl *flog) bool {
	return fl.root == sb.opts.FollowRoot && (sb.opts.FollowerOptions != nil || sb.opts.OpenFollower != nil)
}

// follow hands fl's follower rec, the next record of the mirror, building
// the follower at the create record: from FollowerOptions, or with
// OpenFollower, which replays the mirror itself (Apply then skips the
// records it replayed). It returns the error of a record the follower
// refused.
func (sb *Standby) follow(ctx context.Context, fl *flog, rec journal.Record) error {
	var err error
	switch {
	case fl.follower != nil:
		return fl.follower.Apply(ctx, rec)
	case rec.Seq != 1 || !sb.follows(fl):
	case sb.opts.FollowerOptions != nil:
		fl.follower, err = stream.NewFollower(ctx, fl.path, rec, sb.opts.FollowerOptions)
	default:
		fl.follower, err = sb.opts.OpenFollower(ctx, fl.id, fl.path)
	}
	if err != nil {
		sb.dropFollower(fl, err)
	}
	return nil
}

// attachFollowerLocked rebuilds a dropped follower by replaying the mirror.
// Failure is not fatal — the standby keeps mirroring bytes, and retries on
// the next shipment if the governor refused the follower — but it is loud,
// because without a follower there is no divergence detection and no
// read-only serving for that log.
func (sb *Standby) attachFollowerLocked(ctx context.Context, fl *flog) {
	it, err := journal.RecordsIn(ctx, sb.fs, fl.path, journal.Cursor{})
	if err == nil {
		for err == nil && it.Next() {
			err = sb.follow(ctx, fl, it.Record())
		}
		err = cmp.Or(err, it.Err())
		it.Close()
	}
	if err != nil {
		sb.dropFollower(fl, err)
	} else if fl.follower != nil {
		fl.lastErr = ""
		sb.materializeLocked(fl)
	}
}

// dropFollower closes fl's follower, if it has one, and logs err, when
// there is one, as the reason.
func (sb *Standby) dropFollower(fl *flog, err error) {
	if fl.follower != nil {
		fl.follower.Close()
		fl.follower = nil
	}
	var refused *govern.ErrBudgetExceeded
	fl.rebuild = errors.As(err, &refused)
	if err != nil {
		fl.lastErr = err.Error()
		sb.logf("replica: follower for %s: %v", fl.name, err)
	}
}

// materializeLocked regenerates the published release's file next to the
// mirrored WAL. Journals ship, release files do not; without the file a
// promotion's stream recovery (which verifies it against the publish
// record) would fail. The bytes are the window as the publish record left
// it (Follower.ReleaseBytes), so the regeneration is exact. A mirror that
// cannot produce the file is not a faithful standby: that is divergence,
// not a transient fault.
func (sb *Standby) materializeLocked(fl *flog) {
	if fl.follower == nil {
		return
	}
	pub := fl.follower.Published()
	if pub == nil || pub.Seq == fl.materialized {
		return
	}
	if err := fl.follower.MaterializePublished(filepath.Dir(fl.path)); err != nil {
		sb.logf("replica: %s DIVERGED: %v", fl.name, err)
		fl.diverged = true
		fl.lastErr = err.Error()
		return
	}
	fl.materialized = pub.Seq
}

// HandleShip is the receiver half of the protocol. It enforces the epoch
// fence, makes every acceptable frame durable, advances per-log acks, and
// checks any piggybacked digests against the local replay state.
func (sb *Standby) HandleShip(ctx context.Context, req *ShipRequest) (*ShipResponse, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.closed {
		return nil, fmt.Errorf("replica: standby is closed")
	}
	if sb.promoted {
		return nil, &FencedError{Epoch: req.Epoch, Seen: sb.opts.Node.Epoch()}
	}
	if seen := sb.opts.Node.Epoch(); req.Epoch < seen {
		return nil, &FencedError{Epoch: req.Epoch, Seen: seen}
	}
	if err := sb.opts.Node.Observe(req.Epoch, "ship from "+req.Primary); err != nil {
		return nil, err
	}
	sb.lastShip = time.Now()
	sb.shipFrom = req.Primary

	// Group frames per log, preserving arrival order (the primary ships
	// each log's frames in sequence order).
	order := make([]string, 0, 4)
	byLog := make(map[string][]Frame)
	for _, fr := range req.Frames {
		if _, ok := byLog[fr.Log]; !ok {
			order = append(order, fr.Log)
		}
		byLog[fr.Log] = append(byLog[fr.Log], fr)
	}

	resp := &ShipResponse{Epoch: sb.opts.Node.Epoch(), Acked: make(map[string]int)}
	for _, name := range order {
		fl, err := sb.logLocked(ctx, name)
		if err != nil {
			sb.logf("replica: shipment for %s refused: %v", name, err)
			continue
		}
		sb.applyFramesLocked(ctx, fl, byLog[name])
	}
	for _, d := range req.Digests {
		sb.checkDigestLocked(ctx, d)
	}
	// Ack every known log, not just the touched ones: a primary that
	// restarted learns its peers' positions from the first response.
	for name, fl := range sb.logs {
		resp.Acked[name] = fl.w.Seq()
		if fl.diverged {
			resp.Diverged = append(resp.Diverged, name)
		}
	}
	sort.Strings(resp.Diverged)
	return resp, nil
}

func (sb *Standby) logLocked(ctx context.Context, name string) (*flog, error) {
	if fl, ok := sb.logs[name]; ok {
		return fl, nil
	}
	rootName, id, ok := strings.Cut(name, "/")
	if !ok {
		return nil, fmt.Errorf("replica: malformed log name %q", name)
	}
	fl, err := sb.mirror(rootName, id)
	if err == nil {
		err = sb.openLocked(ctx, fl)
	}
	if err != nil {
		return nil, err
	}
	sb.logs[name] = fl
	return fl, nil
}

// applyFramesLocked makes one log's frames durable — the journal validates
// each line, writes the lot and fsyncs once — then replays the accepted
// records into the follower. Duplicates (seq at or below the durable floor)
// are skipped; a gap or a corrupt frame stops the log's batch — nothing past
// it is acked, and the primary re-ships from the ack point.
func (sb *Standby) applyFramesLocked(ctx context.Context, fl *flog, frames []Frame) {
	var lines [][]byte
	for _, fr := range frames {
		if fr.Seq > fl.w.Seq() { // else duplicate delivery: already durable
			lines = append(lines, fr.Line)
		}
	}
	accepted, err := fl.w.AppendFrames(lines)
	if err != nil {
		fl.lastErr = err.Error()
		sb.logf("replica: %s: %v", fl.name, err)
	} else if len(accepted) > 0 {
		fl.lastErr = ""
	}
	if len(accepted) == 0 {
		return
	}
	sb.frames += int64(len(accepted))

	if !sb.follows(fl) {
		return
	}
	if fl.follower == nil && accepted[0].Seq > 1 {
		if fl.rebuild {
			sb.attachFollowerLocked(ctx, fl) // replays the whole file, new records included
		}
		return
	}
	for _, rec := range accepted {
		if err := sb.follow(ctx, fl, rec); err != nil {
			// The mirrored journal holds a record the replay rejects: the
			// replica's state machine disagrees with the primary's. That is
			// divergence, not a transient fault.
			sb.logf("replica: %s DIVERGED: replaying seq %d: %v", fl.name, rec.Seq, err)
			fl.diverged = true
			fl.lastErr = err.Error()
			sb.dropFollower(fl, nil)
			return
		}
		sb.materializeLocked(fl)
	}
}

// checkDigestLocked compares a primary digest against the local replay
// state. Only an exact sequence match is comparable; a mismatch at the
// same sequence is divergence and is sticky until an operator rebuilds
// the mirror.
func (sb *Standby) checkDigestLocked(ctx context.Context, d LogDigest) {
	fl, ok := sb.logs[d.Log]
	if !ok || fl.follower == nil || fl.w.Seq() != d.Seq {
		return
	}
	got, err := fl.follower.Digest(ctx)
	if err != nil {
		sb.logf("replica: digest of %s at seq %d: %v", d.Log, d.Seq, err)
		return
	}
	if got.Rows != d.Rows || got.Window != d.Window || got.Risk != d.Risk {
		sb.logf("replica: %s DIVERGED at seq %d: rows %d/%d window %.12s…/%.12s… risk %.12s…/%.12s…",
			d.Log, d.Seq, got.Rows, d.Rows, got.Window, d.Window, got.Risk, d.Risk)
		fl.diverged = true
	}
}

// Follower returns the replay view of one mirrored stream (nil if the log
// is unknown or has no follower) — the standby's read-only serving path.
func (sb *Standby) Follower(name string) *stream.Follower {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if fl, ok := sb.logs[name]; ok {
		return fl.follower
	}
	return nil
}

// Followers lists the mirrored logs under the follow root that currently
// have a replay view, sorted by name.
func (sb *Standby) Followers() []*stream.Follower {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	names := make([]string, 0, len(sb.logs))
	for name, fl := range sb.logs {
		if fl.follower != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]*stream.Follower, 0, len(names))
	for _, name := range names {
		out = append(out, sb.logs[name].follower)
	}
	return out
}

// Diverged lists logs whose state digests contradicted the primary's.
func (sb *Standby) Diverged() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	var out []string
	for name, fl := range sb.logs {
		if fl.diverged {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Promote fences the standby into a primary: the grant (which must
// outrank every seen epoch) is journaled, the followers and mirror
// handles are closed, and further shipments are rejected with
// *FencedError. The caller then runs the NORMAL startup recovery over the
// mirrored directories — stream.Open completes any release caught between
// intent and publish, exactly as it would after a local crash; there is
// no promotion-specific state machine.
func (sb *Standby) Promote(ctx context.Context, fence uint64) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.promoted {
		return fmt.Errorf("replica: already promoted (epoch %d)", sb.opts.Node.Granted())
	}
	if err := sb.opts.Node.Promote(fence); err != nil {
		return err
	}
	sb.closeLogsLocked()
	sb.promoted = true
	return nil
}

// Close releases every mirror handle and follower without promoting;
// further shipments are refused with a retryable error.
func (sb *Standby) Close() {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.closed = true
	sb.closeLogsLocked()
}

func (sb *Standby) closeLogsLocked() {
	for _, fl := range sb.logs {
		sb.dropFollower(fl, nil)
		fl.w.Close()
	}
}

// LogStatus is one mirrored journal in StandbyStatus.
type LogStatus struct {
	Name      string `json:"name"`
	Seq       int    `json:"seq"`
	Follower  bool   `json:"follower"`
	Diverged  bool   `json:"diverged,omitempty"`
	LastError string `json:"lastError,omitempty"`
}

// StandbyStatus is the standby half of /replstatus.
type StandbyStatus struct {
	Promoted bool        `json:"promoted"`
	Frames   int64       `json:"frames"`
	LastShip time.Time   `json:"lastShip,omitzero"`
	ShipFrom string      `json:"shipFrom,omitempty"`
	Logs     []LogStatus `json:"logs,omitempty"`
	Diverged []string    `json:"diverged,omitempty"`
}

// Status snapshots the standby for observability.
func (sb *Standby) Status() StandbyStatus {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	st := StandbyStatus{Promoted: sb.promoted, Frames: sb.frames, LastShip: sb.lastShip, ShipFrom: sb.shipFrom}
	names := make([]string, 0, len(sb.logs))
	for name := range sb.logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fl := sb.logs[name]
		st.Logs = append(st.Logs, LogStatus{
			Name: name, Seq: fl.w.Seq(), Follower: fl.follower != nil,
			Diverged: fl.diverged, LastError: fl.lastErr,
		})
		if fl.diverged {
			st.Diverged = append(st.Diverged, name)
		}
	}
	return st
}
