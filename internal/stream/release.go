package stream

import (
	"bytes"
	"context"
	"errors"
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

// gate runs the iteration of Algorithm 2 (anon.Loop) over the window until no
// tuple's risk exceeds the threshold, under the gate's policy: every risky
// tuple is stepped each iteration, by local suppression of its most selective
// attribute, less significant tuples first. Each iteration's decisions are
// journaled as one anon record before the next risk evaluation — the unit of
// recovery — and a failed append makes the loop roll the iteration back
// completely (values, null allocator; the risk view never saw it) before the
// error is reported, so the next attempt mints the same null ids.
func (s *Stream) gate(ctx context.Context) error {
	loop := anon.Loop{
		Dataset:       s.d,
		Threshold:     s.opts.Threshold,
		Anonymizer:    anon.LocalSuppression{},
		BatchFraction: 1,
		Risks:         s.currentRisks,
		View:          s.live,
		Commit: func(cp anon.Checkpoint) error {
			if len(cp.Decisions) == 0 {
				return nil // only found tuples with no step left
			}
			p := anonPayload{Release: s.relSeq + 1, Iteration: cp.Iteration + 1, Decisions: anon.EncodeDecisions(cp.Decisions)}
			if err := s.w.Append(recAnon, p); err != nil {
				return err
			}
			s.pendSupp += len(cp.Decisions)
			return nil
		},
	}
	residual, err := loop.Run(ctx)
	var limit *anon.NotConvergedError
	switch {
	case errors.As(err, &limit):
		return fmt.Errorf("stream: release gate exceeded %d iterations", limit.Iterations)
	case err != nil:
		return err
	case len(residual) > 0:
		return &GateClosedError{Residual: len(residual)}
	}
	return nil
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
		// The bytes the intent was digested from are gone with a crash: the
		// replayed window must regenerate exactly them.
		var buf bytes.Buffer
		if err := mdb.WriteCSV(&buf, s.d); err != nil {
			return fmt.Errorf("stream: re-encoding release %d: %w", p.Release, err)
		}
		if got := digestBytes(buf.Bytes()); got != p.Digest {
			return fmt.Errorf("stream: release %d bytes digest %s contradict the journaled intent %s",
				p.Release, got, p.Digest)
		}
		s.relBytes = buf.Bytes()
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
