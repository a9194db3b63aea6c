package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"vadasa/internal/mdb"
)

// Digest pins the replayable state of a stream at a journal position. Two
// nodes that replayed the same journal prefix must produce identical
// digests — the window digest is the SHA-256 of the exact CSV encoding of
// the window (the same bytes a release would freeze), and the risk digest
// covers the per-row risk vector as IEEE-754 bit patterns in row order, so
// even a last-bit floating-point divergence between a primary's incremental
// scoring and a standby's full reassessment is caught, not averaged away.
type Digest struct {
	// Seq is the journal sequence number the digest covers: state after
	// applying records 1..Seq.
	Seq int `json:"seq"`
	// Rows is the window size, a cheap first-line divergence check.
	Rows int `json:"rows"`
	// Window is the hex SHA-256 of the window's CSV bytes.
	Window string `json:"window"`
	// Risk is the hex SHA-256 of the risk vector's float64 bits, row order.
	Risk string `json:"risk"`
}

// Equal reports whether two digests pin the same state at the same position.
func (d *Digest) Equal(o *Digest) bool {
	return d.Seq == o.Seq && d.Rows == o.Rows && d.Window == o.Window && d.Risk == o.Risk
}

// Digest computes the stream's state digest at its current journal tail.
// The replication shipper piggybacks it on the ship stream; a standby that
// replayed to the same sequence recomputes it and any mismatch marks the
// standby diverged.
func (s *Stream) Digest(ctx context.Context) (*Digest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.digestLocked(ctx, s.w.Seq())
}

// digestLocked computes the digest under s.mu, stamped with seq. It brings
// the risk vector current first, whichever scoring path is active — the
// incremental and full paths are bit-identical by the risk layer's tested
// property, so primary and standby agree even when they score differently.
func (s *Stream) digestLocked(ctx context.Context, seq int) (*Digest, error) {
	risks, err := s.currentRisks(ctx)
	if err != nil {
		return nil, fmt.Errorf("stream %s: digest risk state: %w", s.id, err)
	}
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, s.d); err != nil {
		return nil, fmt.Errorf("stream %s: digest window: %w", s.id, err)
	}
	rb := make([]byte, 8*len(risks))
	for i, r := range risks {
		binary.BigEndian.PutUint64(rb[i*8:], math.Float64bits(r))
	}
	return &Digest{
		Seq:    seq,
		Rows:   len(s.d.Rows),
		Window: digestBytes(buf.Bytes()),
		Risk:   digestBytes(rb),
	}, nil
}
