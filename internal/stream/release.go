package stream

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/mdb"
)

// Release drives the gate: it anonymizes the window until every tuple's
// risk clears the threshold, journals the intent with the digest of the
// exact bytes to be published, writes the release file, and journals the
// publish record. The window snapshot is published exactly once — an
// already-published, unacked release is re-served unchanged, and a release
// interrupted between intent and publish is completed (here or at the next
// Open) rather than recomputed.
//
// A window that cannot be brought under threshold — the suppressor has no
// move left for some tuple — fails with a *GateClosedError and publishes
// nothing; the suppressions already journaled stay (they only ever lower
// risk) and a later Release resumes from them.
func (s *Stream) Release(ctx context.Context) (*ReleaseInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.checkFence(); err != nil {
		return nil, err
	}
	if s.pending != nil {
		// An earlier attempt crashed or failed between intent and publish:
		// the intent's promise is completed before anything else happens.
		if err := s.completePending(ctx); err != nil {
			return nil, err
		}
		return s.published, nil
	}
	if s.published != nil {
		return s.published, nil
	}
	if len(s.d.Rows) == 0 {
		return nil, fmt.Errorf("stream: window is empty; nothing to release")
	}
	if err := s.gate(ctx); err != nil {
		return nil, err
	}

	// The gate is open: freeze the bytes, journal the intent, publish.
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, s.d); err != nil {
		return nil, fmt.Errorf("stream: encoding release: %w", err)
	}
	p := intentPayload{Release: s.relSeq + 1, Rows: len(s.d.Rows), Digest: digestBytes(buf.Bytes())}
	if err := s.appendIntent(p); err != nil {
		return nil, err
	}
	s.relSeq = p.Release
	s.pending = &p
	s.relBytes = buf.Bytes()
	if err := s.completePending(ctx); err != nil {
		return nil, err
	}
	return s.published, nil
}

// gate runs the anonymization loop of Algorithm 2 over the window until no
// tuple's risk exceeds the threshold. Each iteration's decisions are
// journaled as one anon record before the next risk evaluation — the unit
// of recovery — and a failed journal append rolls the iteration back
// completely (values, null allocator, index) before reporting the error.
func (s *Stream) gate(ctx context.Context) error {
	qi := s.d.QuasiIdentifiers()
	suppress := anon.LocalSuppression{Choice: s.opts.Choice}
	actx := anon.NewContext(s.d, qi)
	for iter := 1; ; iter++ {
		if iter > maxIterations {
			return fmt.Errorf("stream: release gate exceeded %d iterations", maxIterations)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		risks, err := s.currentRisks(ctx)
		if err != nil {
			return err
		}
		var risky []int
		for pos, r := range risks {
			if r > s.opts.Threshold {
				risky = append(risky, pos)
			}
		}
		if len(risky) == 0 {
			return nil
		}
		s.opts.Order.Sort(s.d, risks, risky)

		saved := s.d.Nulls
		type step struct {
			pos, attr int
			old       mdb.Value
		}
		var steps []step
		var decs []anon.Decision
		for _, pos := range risky {
			ds, ok := suppress.Step(actx, pos)
			if !ok {
				continue
			}
			for i := range ds {
				ds[i].Risk = risks[pos]
				ds[i].Iteration = iter
				attr := s.d.AttrIndex(ds[i].Attr)
				steps = append(steps, step{pos: pos, attr: attr, old: ds[i].Old})
			}
			actx.Applied(ds)
			decs = append(decs, ds...)
		}
		if len(decs) == 0 {
			return &GateClosedError{Residual: len(risky)}
		}

		p := anonPayload{Release: s.relSeq + 1, Iteration: iter, Decisions: make([]decisionRecord, len(decs))}
		for i, d := range decs {
			p.Decisions[i] = encodeDecision(d)
		}
		if err := s.w.Append(recAnon, p); err != nil {
			// Unwind the whole iteration: restore the suppressed values in
			// reverse and put the null allocator back so the next attempt
			// mints the same ids (the journal left no trace of the record).
			// The risk view never saw the mutation, so state is exactly
			// pre-iteration.
			for i := len(steps) - 1; i >= 0; i-- {
				s.d.Rows[steps[i].pos].Values[steps[i].attr] = steps[i].old
			}
			s.d.Nulls = saved
			return err
		}
		s.pendSupp += len(decs)
		for _, st := range steps {
			if err := s.live.Suppressed(st.pos, st.attr); err != nil {
				return fmt.Errorf("stream: index maintenance: %w", err)
			}
		}
		actx = actx.Next()
	}
}

// appendIntent journals the release declaration. It must precede the
// matching appendPublish — the streamfence vet pass enforces the pairing.
func (s *Stream) appendIntent(p intentPayload) error {
	return s.w.Append(recIntent, p)
}

// appendPublish journals the publication commit point.
func (s *Stream) appendPublish(p publishPayload) error {
	return s.w.Append(recPublish, p)
}

// completePending fulfils the journaled intent: regenerate the promised
// bytes if a crash lost the in-memory copy, verify them against the
// intent's digest, make the release file durable, then journal the publish
// record. Every step is idempotent — the file write truncates, the digest
// pins the content — so the method can run any number of times across
// crashes and still publish exactly once (the publish record is the one
// and only commit point).
func (s *Stream) completePending(ctx context.Context) error {
	// A fenced (demoted) node must never commit a publish: the promoted
	// peer may have completed and served this very release already, and a
	// second publication would break exactly-once. The check runs here —
	// the last gate before the publish record — so every caller (live
	// release, retry, startup recovery) is covered.
	if err := s.checkFence(); err != nil {
		return err
	}
	p := s.pending
	if s.relBytes == nil {
		var buf bytes.Buffer
		if err := mdb.WriteCSV(&buf, s.d); err != nil {
			return fmt.Errorf("stream: re-encoding release %d: %w", p.Release, err)
		}
		s.relBytes = buf.Bytes()
	}
	if got := digestBytes(s.relBytes); got != p.Digest {
		return fmt.Errorf("stream: release %d bytes digest %s contradict the journaled intent %s",
			p.Release, got, p.Digest)
	}
	name := s.releaseFileName(p.Release)
	path := filepath.Join(s.dir, name)
	if err := faultfs.WriteFileDurable(s.fs, path, s.relBytes); err != nil {
		return fmt.Errorf("stream: writing release %d: %w", p.Release, err)
	}
	// The file is durable; the publish record commits the publication.
	// Intent was journaled by our caller (or by the incarnation that
	// crashed), which is the pairing the fence checks.
	//streamfence:ok — completes a previously journaled intent
	if err := s.appendPublish(publishPayload{Release: p.Release, File: name, Digest: p.Digest}); err != nil {
		return err
	}
	s.published = &ReleaseInfo{
		Seq:          p.Release,
		File:         name,
		Path:         path,
		Digest:       p.Digest,
		Rows:         p.Rows,
		Suppressions: s.pendSupp,
	}
	s.pending, s.relBytes, s.pendSupp = nil, nil, 0
	s.releases++
	return nil
}

// Ack retires the published release seq: after the journaled ack the
// release is never re-served and the window is free to mutate toward the
// next one. Acking an already-retired sequence succeeds idempotently.
func (s *Stream) Ack(ctx context.Context, seq int) error {
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
	if s.published == nil || s.published.Seq != seq {
		if seq >= 1 && seq <= s.relSeq && s.published == nil {
			return nil // already acked — retries are harmless
		}
		return fmt.Errorf("stream: no published release %d to ack", seq)
	}
	if err := s.w.Append(recAck, ackPayload{Release: seq}); err != nil {
		return err
	}
	s.published = nil
	s.acked++
	return nil
}

// Published returns the currently published, unacked release (nil if none).
func (s *Stream) Published() *ReleaseInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.published
}

// ReleaseBytes reads a release's bytes back, verifying them against the
// journaled digest — the serving path never returns bytes the intent did
// not promise.
func (s *Stream) ReleaseBytes(info *ReleaseInfo) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verifyReleaseFile(info)
}

func (s *Stream) verifyReleaseFile(info *ReleaseInfo) ([]byte, error) {
	b, err := s.fs.ReadFile(info.Path)
	if err != nil {
		return nil, fmt.Errorf("stream: reading release %d: %w", info.Seq, err)
	}
	if got := digestBytes(b); got != info.Digest {
		return nil, fmt.Errorf("stream: release %d file digest %s contradicts journaled %s",
			info.Seq, got, info.Digest)
	}
	return b, nil
}
