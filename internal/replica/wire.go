// Package replica implements warm-standby replication for the vadasad
// durability layer: a primary ships every committed journal record — job
// WALs and stream WALs alike — to one or more standbys over HTTP, and a
// standby maintains its state through the very same journal replay code
// paths that run at startup recovery. There is no second state machine:
// the unit of replication is the exact framed journal line (CRC prefix
// included), so a standby's mirrored WAL is byte-identical to the
// primary's, and promotion is nothing more than running the normal
// recovery path over files the node already has.
//
// Three mechanisms make failover safe:
//
//   - Epoch fencing. A monotonic replication epoch is persisted in a small
//     journal of its own. Promote requires a fence token strictly greater
//     than any epoch the node has seen, and a demoted primary's appends and
//     publishes fail with *FencedError — split-brain cannot double-publish
//     a release.
//   - Write-ahead shipping with acks. Frames carry per-log sequence
//     numbers; a standby accepts a frame only if the journal's own framing
//     rules (CRC-32C, strict sequence) accept it, appends it to the
//     mirrored file, fsyncs, and only then acknowledges. In synchronous
//     mode the primary's append does not commit until a follower has
//     acknowledged it.
//   - Divergence detection. The primary piggybacks SHA-256 state digests
//     (window bytes + risk vector bits at a journal position) on the ship
//     stream; a standby that replayed to the same position recomputes them
//     and reports `diverged` rather than silently serving wrong releases.
package replica

import (
	"errors"
	"fmt"
)

// Frame is one replicated journal record: the exact framed line bytes the
// primary's journal committed (CRC-32C prefix, no trailing newline). The
// standby's journal.Writer.AppendFrames re-validates the frame before
// appending it, so corruption in transit can never enter a mirrored WAL.
type Frame struct {
	// Log names the journal the frame belongs to, as "<root>/<name>" —
	// e.g. "stream/trades" or "jobs/j-01HX...". The standby maps roots to
	// local directories and refuses path-escaping names.
	Log string `json:"log"`
	// Seq is the record's journal sequence number (1-based, per log).
	Seq int `json:"seq"`
	// Line is the framed record bytes. JSON base64-encodes it.
	Line []byte `json:"line"`
}

// LogDigest is a stream state digest piggybacked on the ship stream,
// tagged with the log it covers. The standby compares it only when its
// replay position equals Seq.
type LogDigest struct {
	Log    string `json:"log"`
	Seq    int    `json:"seq"`
	Rows   int    `json:"rows"`
	Window string `json:"window"`
	Risk   string `json:"risk"`
}

// ShipRequest is one batched shipment from primary to standby.
type ShipRequest struct {
	// Primary identifies the sending node (diagnostics only).
	Primary string `json:"primary"`
	// Epoch is the sender's replication epoch. A standby that has seen a
	// higher epoch refuses the shipment with a fencing error; a standby
	// that sees a higher epoch than its own adopts and persists it.
	Epoch uint64 `json:"epoch"`
	// Frames are the records, in per-log sequence order.
	Frames []Frame `json:"frames,omitempty"`
	// Digests are the primary's state digests for divergence detection.
	Digests []LogDigest `json:"digests,omitempty"`
}

// ShipResponse acknowledges a shipment.
type ShipResponse struct {
	// Epoch is the receiver's replication epoch.
	Epoch uint64 `json:"epoch"`
	// Acked maps each log touched by the request to the highest journal
	// sequence the standby has made durable — the primary's replication
	// ack point.
	Acked map[string]int `json:"acked,omitempty"`
	// Diverged lists logs whose recomputed state digest contradicted the
	// primary's.
	Diverged []string `json:"diverged,omitempty"`
}

// FencedError is the typed rejection of a write, shipment or promotion by
// the epoch fence: the acting node's epoch is not the highest the cluster
// has granted, so acting on its behalf could split the brain.
type FencedError struct {
	// Epoch is the acting node's own epoch (its last grant; 0 if never
	// granted one).
	Epoch uint64
	// Seen is the highest epoch the rejecting node has observed.
	Seen uint64
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("replica: fenced: epoch %d is stale (epoch %d has been granted)", e.Epoch, e.Seen)
}

// IsFenced reports whether err is (or wraps) a *FencedError.
func IsFenced(err error) bool {
	var fe *FencedError
	return errors.As(err, &fe)
}
