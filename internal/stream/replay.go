package stream

import (
	"context"
	"encoding/json"
	"fmt"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
)

// Info is the self-describing header of a stream journal, read by Peek.
type Info struct {
	ID        string
	Attrs     []mdb.Attribute
	Threshold float64
	Semantics mdb.Semantics
	Meta      json.RawMessage
}

// Peek reads just the create record of the journal at path — enough for a
// recovering server to rebuild the stream's Options (the risk measure lives
// in Meta) before calling Open, without replaying the whole WAL.
func Peek(ctx context.Context, fsys faultfs.FS, path string) (*Info, error) {
	it, err := journal.RecordsIn(ctx, fsys, path, journal.Cursor{})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if !it.Next() {
		if err := it.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("stream: %s: journal has no create record", path)
	}
	info, err := infoOf(it.Record())
	if err != nil {
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	return info, nil
}

// infoOf reads the header of a stream journal off its first record.
func infoOf(rec journal.Record) (*Info, error) {
	if rec.Type != recCreate {
		return nil, fmt.Errorf("first record is %q, want %q", rec.Type, recCreate)
	}
	var p createPayload
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		return nil, fmt.Errorf("decoding create record: %w", err)
	}
	attrs, err := p.attrs()
	if err != nil {
		return nil, err
	}
	sem, err := p.semantics()
	if err != nil {
		return nil, err
	}
	return &Info{ID: p.Stream, Attrs: attrs, Threshold: p.Threshold, Semantics: sem, Meta: p.Meta}, nil
}

// recovered finishes an open. journal.Open has replayed the WAL record by
// record through the same apply functions the live paths use — which is what
// makes the recovered window bit-identical to the crashed one; what is left
// is to complete any release caught between its intent and publish records
// (a fresh stream has neither).
func (s *Stream) recovered(ctx context.Context) (*Stream, error) {
	if s.pending != nil {
		// Crash between intent and publish: the intent promised specific
		// bytes (its digest); the replayed window regenerates exactly them,
		// so completing here is deterministic. Failure fails the open — the
		// stream must not accept new work with an unfulfilled intent.
		if err := s.completePending(ctx); err != nil {
			s.w.Close()
			return nil, fmt.Errorf("stream %s: completing interrupted release %d: %w", s.id, s.pending.Release, err)
		}
	}
	if s.published != nil {
		// The publish record was fsync'd after the release file, so the
		// file must be intact; anything else is real corruption.
		if _, err := s.verifyReleaseFile(s.published); err != nil {
			s.w.Close()
			return nil, fmt.Errorf("stream %s: published release %d: %w", s.id, s.published.Seq, err)
		}
	}
	return s, nil
}

// replay applies one journaled record. The intent → publish window is the
// only place the protocol restricts record order: an intent must be the
// journal's last record or be followed immediately by its publish.
func (s *Stream) replay(rec journal.Record) error {
	if s.d == nil && rec.Type != recCreate {
		return fmt.Errorf("stream: record %d (%s) precedes the create record", rec.Seq, rec.Type)
	}
	if s.pending != nil && rec.Type != recPublish {
		return fmt.Errorf("stream: record %d (%s) follows an unpublished intent for release %d",
			rec.Seq, rec.Type, s.pending.Release)
	}
	switch rec.Type {
	case recCreate:
		if s.d != nil {
			return fmt.Errorf("stream: duplicate create record at seq %d", rec.Seq)
		}
		var p createPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("stream: decoding create record: %w", err)
		}
		return s.applyCreate(p)
	case recBatch:
		p, err := decode(rec.Payload, readBatch)
		if err != nil {
			return fmt.Errorf("stream: decoding batch record %d: %w", rec.Seq, err)
		}
		if s.batches[p.BatchID] {
			return fmt.Errorf("stream: batch %q journaled twice (records up to %d)", p.BatchID, rec.Seq)
		}
		bytes := batchBytes(p.Rows)
		//governcharge:ok — refunded row by row by applyWithdraw, the rest in bulk by Close
		if err := s.gov.ReserveBytes(bytes); err != nil {
			return fmt.Errorf("stream: replaying batch %q: %w", p.BatchID, err)
		}
		s.memCharged += bytes
		s.applyBatch(p.BatchID, p.Rows)
		return nil
	case recWithdraw:
		p, err := decode(rec.Payload, readWithdraw)
		if err != nil {
			return fmt.Errorf("stream: decoding withdraw record %d: %w", rec.Seq, err)
		}
		_, err = s.applyWithdraw(p.RowIDs)
		return err
	case recAnon:
		var p anonPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("stream: decoding anon record %d: %w", rec.Seq, err)
		}
		return s.applyAnon(p)
	case recIntent:
		var p intentPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("stream: decoding intent record %d: %w", rec.Seq, err)
		}
		if p.Release != s.relSeq+1 {
			return fmt.Errorf("stream: intent for release %d, want %d", p.Release, s.relSeq+1)
		}
		if p.Rows != len(s.d.Rows) {
			return fmt.Errorf("stream: intent for release %d covers %d rows, window has %d",
				p.Release, p.Rows, len(s.d.Rows))
		}
		s.relSeq = p.Release
		s.pending = &p
		return nil
	case recPublish:
		var p publishPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("stream: decoding publish record %d: %w", rec.Seq, err)
		}
		if s.pending == nil || s.pending.Release != p.Release {
			return fmt.Errorf("stream: publish record for release %d without matching intent", p.Release)
		}
		if p.Digest != s.pending.Digest {
			return fmt.Errorf("stream: publish digest %s contradicts intent digest %s for release %d",
				p.Digest, s.pending.Digest, p.Release)
		}
		s.published = &ReleaseInfo{
			Seq:          p.Release,
			File:         p.File,
			Path:         s.dir + "/" + p.File,
			Digest:       p.Digest,
			Rows:         s.pending.Rows,
			Suppressions: s.pendSupp,
		}
		s.pending, s.pendSupp = nil, 0
		s.releases++
		return nil
	case recAck:
		var p ackPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("stream: decoding ack record %d: %w", rec.Seq, err)
		}
		if s.published == nil || s.published.Seq != p.Release {
			return fmt.Errorf("stream: ack for release %d without a matching publish", p.Release)
		}
		s.published = nil
		s.acked++
		return nil
	case recCheckpoint:
		var p checkpointPayload
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return fmt.Errorf("stream: decoding checkpoint record %d: %w", rec.Seq, err)
		}
		if p.Batches != s.nbatch || p.Rows != len(s.d.Rows) || p.Releases != s.releases || p.Acked != s.acked {
			return fmt.Errorf("stream: checkpoint at seq %d (batches=%d rows=%d releases=%d acked=%d) contradicts replayed state (batches=%d rows=%d releases=%d acked=%d)",
				rec.Seq, p.Batches, p.Rows, p.Releases, p.Acked,
				s.nbatch, len(s.d.Rows), s.releases, s.acked)
		}
		return nil
	default:
		return fmt.Errorf("stream: unknown record type %q at seq %d", rec.Type, rec.Seq)
	}
}

// applyCreate adopts the journaled stream definition, cross-checking
// whatever the caller's Options carried — the journal is authoritative, a
// contradiction means the caller opened the wrong stream.
func (s *Stream) applyCreate(p createPayload) error {
	if p.Stream != s.id {
		return fmt.Errorf("stream: journal belongs to stream %q, opened as %q", p.Stream, s.id)
	}
	attrs, err := p.attrs()
	if err != nil {
		return err
	}
	sem, err := p.semantics()
	if err != nil {
		return err
	}
	if len(s.opts.Attrs) > 0 {
		if len(s.opts.Attrs) != len(attrs) {
			return fmt.Errorf("stream: caller schema has %d attributes, journal %d", len(s.opts.Attrs), len(attrs))
		}
		for i, a := range s.opts.Attrs {
			if a.Name != attrs[i].Name || a.Category != attrs[i].Category {
				return fmt.Errorf("stream: caller attribute %d (%s/%s) contradicts journal (%s/%s)",
					i, a.Name, a.Category, attrs[i].Name, attrs[i].Category)
			}
		}
	}
	if p.Threshold != s.opts.Threshold {
		return fmt.Errorf("stream: caller threshold %g contradicts journaled %g", s.opts.Threshold, p.Threshold)
	}
	if sem != s.opts.Semantics {
		return fmt.Errorf("stream: caller semantics %s contradicts journaled %s", s.opts.Semantics, sem)
	}
	s.opts.Attrs = attrs
	s.opts.Meta = p.Meta
	s.d = mdb.NewDataset(s.id, attrs)
	if len(s.d.QuasiIdentifiers()) == 0 {
		return fmt.Errorf("stream: journaled schema has no quasi-identifiers")
	}
	return nil
}

// applyAnon replays one suppression iteration through anon.Replay, which
// checks every decision against the window and observes the journaled null
// ids on its allocator — so nulls minted after recovery never collide with
// replayed ones, exactly as on the live path.
func (s *Stream) applyAnon(p anonPayload) error {
	decisions, err := anon.DecodeDecisions(p.Decisions)
	if err == nil {
		err = anon.Replay(s.d, decisions, s.position)
	}
	if err != nil {
		return fmt.Errorf("stream: replaying iteration %d of release %d's gate: %w", p.Iteration, p.Release, err)
	}
	s.pendSupp += len(decisions)
	return nil
}

// batchBytes is the governor charge for one batch — the live path and
// replay must agree so a recovered stream holds the same reservation.
func batchBytes(rows [][]string) int64 {
	var bytes int64
	for _, r := range rows {
		bytes += 64
		for _, c := range r {
			bytes += int64(len(c))
		}
	}
	return bytes
}

// rowBytes is batchBytes for one window row as it stands — the governor
// refund of its withdrawal.
func rowBytes(r *mdb.Row) int64 {
	bytes := int64(64)
	for _, v := range r.Values {
		bytes += int64(len(v.String()))
	}
	return bytes
}
