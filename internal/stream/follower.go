package stream

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"

	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// Follower is a read-only replica of a stream: it replays the mirrored
// journal through the exact apply functions the live paths and startup
// recovery use — there is no second state machine — but it never writes.
// It holds no journal writer, never completes a pending intent (that is
// the promoted primary's job, done through the normal Open path), and
// always scores risk through the measure's full reference path, which is
// bit-identical to the primary's incremental scoring by the risk layer's
// tested property.
//
// A standby keeps one Follower per mirrored stream WAL: every shipped
// frame is appended to the local file first, then fed to Apply, so the
// file on disk is always at or ahead of the in-memory state and a
// standby restart simply re-replays the file.
type Follower struct {
	s   *Stream
	seq int // journal sequence of the last applied record
	// relBytes is the published release's content, snapshotted while the
	// replayed window still provably matches the journaled digest: from
	// the publish record until the first later record that is not its ack
	// (unsnapped marks that span, in which the window itself holds the
	// release). The window may keep moving under later appends while the
	// release awaits its ack; the snapshot is what keeps the mirror able
	// to serve and materialize the release regardless. A release acked
	// straight after its publish is never snapshotted.
	relBytes  []byte
	unsnapped bool
}

// NewFollower starts the read-only replay view of the mirrored journal at
// path from its first record, which must be the create record: options
// rebuilds the stream's Options from the header the record holds — on a
// server, the same function startup recovery opens streams with. Every
// later record reaches the follower through Apply, so a standby feeds it
// from the same read that opens the mirror.
func NewFollower(ctx context.Context, path string, create journal.Record, options func(*Info) (Options, error)) (*Follower, error) {
	info, err := infoOf(create)
	if err != nil {
		return nil, err
	}
	opts, err := options(info)
	if err != nil {
		return nil, err
	}
	s, err := newStream(info.ID, path, opts)
	if err != nil {
		return nil, err
	}
	f := &Follower{s: s}
	if err := f.Apply(ctx, create); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// OpenFollower replays the mirrored journal at path into a read-only
// window: a new follower fed every committed record through Apply. Unlike
// Open it tolerates a pending intent (the frame stream simply stopped
// between intent and publish) and never appends; opts needs the same
// Assessor/Threshold the primary used.
func OpenFollower(ctx context.Context, id, path string, opts Options) (*Follower, error) {
	s, err := newStream(id, path, opts)
	if err != nil {
		return nil, err
	}
	f := &Follower{s: s}
	it, err := journal.RecordsIn(ctx, s.fs, path, journal.Cursor{})
	if err != nil {
		return nil, fmt.Errorf("stream %s: opening follower: %w", id, err)
	}
	defer it.Close()
	for err == nil && it.Next() {
		err = f.Apply(ctx, it.Record())
	}
	if err = cmp.Or(err, it.Err()); err == nil && s.d == nil {
		err = fmt.Errorf("mirrored journal holds no create record")
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("stream %s: follower replay: %w", id, err)
	}
	return f, nil
}

// Apply replays one record in strict sequence, the create record first:
// a record read from the mirror, or one freshly shipped that the standby
// has already validated and made durable in the mirrored file. A record
// at or below the follower's position is applied already: it is skipped.
func (f *Follower) Apply(ctx context.Context, rec journal.Record) error {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if rec.Seq <= f.seq {
		return nil
	}
	if rec.Seq != f.seq+1 {
		return fmt.Errorf("stream %s: follower at seq %d cannot apply record %d", s.id, f.seq, rec.Seq)
	}
	if f.unsnapped && rec.Type != recAck {
		f.snapshotRelease()
	}
	if err := s.replay(rec); err != nil {
		return err
	}
	switch rec.Type {
	case recPublish:
		f.relBytes, f.unsnapped = nil, true
	case recAck:
		f.relBytes, f.unsnapped = nil, false
	}
	f.seq = rec.Seq
	if s.live == nil {
		// The follower scores one-shot, whatever the measure: it holds no
		// group index between records.
		s.live = risk.NewLive(s.opts.Assessor, s.d, s.opts.Semantics, s.gov)
		s.live.SetIndexing(false)
	}
	// The risk vector is stale until someone asks: Digest recomputes on
	// demand.
	s.live.Invalidate()
	return nil
}

// Seq is the journal sequence of the last applied record.
func (f *Follower) Seq() int {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	return f.seq
}

// ID returns the stream's name.
func (f *Follower) ID() string { return f.s.id }

// Meta returns the opaque metadata journaled at creation.
func (f *Follower) Meta() json.RawMessage { return f.s.opts.Meta }

// Status reports the replayed state, exactly like Stream.Status.
func (f *Follower) Status(ctx context.Context) Status { return f.s.Status(ctx) }

// Digest computes the state digest at the follower's replay position —
// the standby's half of divergence detection.
func (f *Follower) Digest(ctx context.Context) (*Digest, error) {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.digestLocked(ctx, f.seq)
}

// Published returns the currently published, unacked release (nil if none).
func (f *Follower) Published() *ReleaseInfo { return f.s.Published() }

// snapshotRelease freezes the published release's bytes off the window,
// which still holds them. Called under s.mu. ReleaseBytes refuses a
// snapshot that contradicts the journaled digest, the divergence signal.
func (f *Follower) snapshotRelease() {
	f.unsnapped = false
	var buf bytes.Buffer
	if mdb.WriteCSV(&buf, f.s.d) == nil {
		f.relBytes = buf.Bytes()
	}
}

// ReleaseBytes returns the published release's bytes, verified against the
// journaled digest: a standby serves read-only release downloads without
// ever having seen the primary's release file. The bytes come from the
// window as the publish record left it — the window itself may have moved
// under later appends while the release awaits its ack.
func (f *Follower) ReleaseBytes() ([]byte, error) {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.published == nil {
		return nil, fmt.Errorf("stream %s: no published release", s.id)
	}
	if f.unsnapped {
		f.snapshotRelease()
	}
	if got := digestBytes(f.relBytes); got != s.published.Digest {
		return nil, fmt.Errorf("stream %s: regenerated release %d digest %s contradicts journaled %s",
			s.id, s.published.Seq, got, s.published.Digest)
	}
	return bytes.Clone(f.relBytes), nil
}

// MaterializePublished writes the published release's file into dir when it
// is absent or stale. Journals ship; release files do not — but a promotion
// recovers the mirror through stream.Open, which requires the file a publish
// record names to be intact. The bytes are ReleaseBytes', so
// materialization stays exact even after later appends have moved the
// window. Idempotent; no-op without a published release.
func (f *Follower) MaterializePublished(dir string) error {
	pub := f.Published()
	if pub == nil {
		return nil
	}
	path := filepath.Join(dir, pub.File)
	if b, err := f.s.fs.ReadFile(path); err == nil && digestBytes(b) == pub.Digest {
		return nil
	}
	b, err := f.ReleaseBytes()
	if err != nil {
		return fmt.Errorf("stream %s: materializing release %d: %w", f.s.id, pub.Seq, err)
	}
	if err := faultfs.WriteFileDurable(f.s.fs, path, b); err != nil {
		return fmt.Errorf("stream %s: materializing release %d: %w", f.s.id, pub.Seq, err)
	}
	return nil
}

// Close releases the follower's governor charges. It never journals — a
// follower owns no writer. Idempotent.
func (f *Follower) Close() error {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.gov.ReleaseBytes(s.memCharged)
	s.memCharged = 0
	return nil
}
