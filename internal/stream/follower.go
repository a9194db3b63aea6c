package stream

import (
	"bytes"
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
	// relBytes is the published release's content, snapshotted at the
	// instant the publish record was applied — the one point where the
	// replayed window provably matches the journaled digest. The window
	// may keep moving under later appends while the release awaits its
	// ack; the snapshot is what keeps the mirror able to serve and
	// materialize the release regardless.
	relBytes []byte
}

// OpenFollower replays the mirrored journal at path into a read-only
// window. Unlike Open it tolerates a pending intent (the frame stream
// simply stopped between intent and publish) and never appends; opts needs
// the same Assessor/Threshold the primary used — on a server, rebuilt from
// the create record's Meta exactly as startup recovery does.
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
	for it.Next() {
		if err := s.replay(it.Record()); err != nil {
			f.releaseCharges()
			return nil, fmt.Errorf("stream %s: follower replay: %w", id, err)
		}
		f.snapshotRelease(it.Record().Type)
	}
	if err := it.Err(); err != nil {
		f.releaseCharges()
		return nil, fmt.Errorf("stream %s: follower replay: %w", id, err)
	}
	f.seq = it.LastSeq()
	if s.d == nil {
		return nil, fmt.Errorf("stream %s: mirrored journal holds no create record", id)
	}
	// The follower scores one-shot, whatever the measure: it holds no group
	// index between shipped records.
	s.live = risk.NewLive(opts.Assessor, s.d, s.opts.Semantics, s.gov)
	s.live.SetIndexing(false)
	return f, nil
}

// Apply replays one freshly shipped record. The caller (the standby) has
// already validated the frame and made it durable in the mirrored file;
// Apply requires records in strict sequence.
func (f *Follower) Apply(ctx context.Context, rec journal.Record) error {
	s := f.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if rec.Seq != f.seq+1 {
		return fmt.Errorf("stream %s: follower at seq %d cannot apply record %d", s.id, f.seq, rec.Seq)
	}
	if err := s.replay(rec); err != nil {
		return err
	}
	f.snapshotRelease(rec.Type)
	f.seq = rec.Seq
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

// snapshotRelease keeps f.relBytes in step with the replay: a publish
// record freezes the window's bytes (verified against the journaled
// digest), an ack drops them. Called under s.mu with the record already
// applied. A snapshot that contradicts its digest is discarded —
// ReleaseBytes will then refuse to serve, which is the divergence signal.
func (f *Follower) snapshotRelease(typ journal.Type) {
	s := f.s
	switch typ {
	case recPublish:
		f.relBytes = nil
		if s.published == nil {
			return
		}
		var buf bytes.Buffer
		if err := mdb.WriteCSV(&buf, s.d); err != nil {
			return
		}
		if digestBytes(buf.Bytes()) == s.published.Digest {
			f.relBytes = buf.Bytes()
		}
	case recAck:
		f.relBytes = nil
	}
}

// ReleaseBytes returns the published release's bytes, verified against the
// journaled digest: a standby serves read-only release downloads without
// ever having seen the primary's release file. The bytes come from the
// snapshot taken when the publish record was applied — the window itself
// may have moved under later appends while the release awaits its ack.
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
	b := f.relBytes
	if b == nil {
		// No snapshot survived (or it contradicted the digest at apply
		// time): fall back to the window, valid only while nothing has
		// been appended since the publish.
		var buf bytes.Buffer
		if err := mdb.WriteCSV(&buf, s.d); err != nil {
			return nil, fmt.Errorf("stream %s: re-encoding release %d: %w", s.id, s.published.Seq, err)
		}
		b = buf.Bytes()
	}
	if got := digestBytes(b); got != s.published.Digest {
		return nil, fmt.Errorf("stream %s: regenerated release %d digest %s contradicts journaled %s",
			s.id, s.published.Seq, got, s.published.Digest)
	}
	return append([]byte(nil), b...), nil
}

// MaterializePublished writes the published release's file into dir when it
// is absent or stale. Journals ship; release files do not — but a promotion
// recovers the mirror through stream.Open, which requires the file a publish
// record names to be intact. The bytes come from the publish-time snapshot,
// so materialization stays exact even after later appends have moved the
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
	f.releaseCharges()
	return nil
}

func (f *Follower) releaseCharges() {
	s := f.s
	s.gov.ReleaseBytes(s.memCharged)
	s.memCharged = 0
}
