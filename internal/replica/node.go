package replica

import (
	"context"
	"fmt"
	"sync"

	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
)

// Role is a node's replication role.
type Role string

const (
	// RolePrimary accepts writes and ships its journals.
	RolePrimary Role = "primary"
	// RoleStandby mirrors a primary's journals and serves reads.
	RoleStandby Role = "standby"
)

// TypeEpoch is the journal record type of the replication-epoch journal:
// one record per epoch transition, the same restart-floor discipline
// internal/dist uses for shard leases.
const TypeEpoch journal.Type = "epoch"

// epochPayload is the journaled epoch transition. Action "grant" records
// this node acting as primary under Epoch (startup or promotion); action
// "observe" records an epoch seen from elsewhere (a shipping primary, or
// a fencing rejection). On restart the maximum over all records is the
// floor no future grant may step under.
type epochPayload struct {
	Epoch  uint64 `json:"epoch"`
	Action string `json:"action"` // "grant" or "observe"
	Cause  string `json:"cause,omitempty"`
}

// Node is the fencing authority of one vadasad process: it persists the
// replication epoch in a dedicated journal (NodeJournalName, deliberately
// not matching the stream registry's *.wal glob) and answers the single
// question every write path asks — "may this node still act as primary?"
type Node struct {
	mu   sync.Mutex
	id   string
	path string
	w    *journal.Writer

	role  Role
	grant uint64 // highest epoch this node was granted (0 = never primary)
	seen  uint64 // highest epoch seen anywhere (>= grant)
}

// NodeJournalName is the epoch journal's file name within the state
// directory.
const NodeJournalName = "replica.journal"

// OpenNode opens (or creates) the epoch journal at path and establishes
// the node's fencing state. A fresh primary grants itself epoch 1; a
// restarting primary keeps its last granted epoch unless a higher epoch
// was observed in the meantime — in which case it comes back *fenced* and
// refuses writes until promoted with a fresh fence token.
func OpenNode(id string, path string, role Role, fs faultfs.FS) (*Node, error) {
	if role != RolePrimary && role != RoleStandby {
		return nil, fmt.Errorf("replica: unknown role %q", role)
	}
	n := &Node{id: id, path: path, role: role}
	w, err := journal.Open(context.TODO(), path, journal.Config{FS: fs}, func(rec journal.Record) error {
		var p epochPayload
		if err := rec.Decode(&p); err != nil {
			return err
		}
		n.seen = max(n.seen, p.Epoch)
		if p.Action == "grant" {
			n.grant = max(n.grant, p.Epoch)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replica: opening epoch journal: %w", err)
	}
	n.w = w
	if role == RolePrimary && n.seen == 0 {
		// First boot as primary: grant epoch 1. A restarting primary keeps
		// its journaled grant; one that was demoted while down (an observe
		// record outranks its grant) comes back fenced and stays fenced
		// until promoted with a fresh token.
		if err := n.appendLocked(epochPayload{Epoch: 1, Action: "grant", Cause: "startup"}); err != nil {
			n.w.Close()
			return nil, err
		}
		n.grant, n.seen = 1, 1
	}
	return n, nil
}

func (n *Node) appendLocked(p epochPayload) error {
	if err := n.w.Append(TypeEpoch, p); err != nil {
		return fmt.Errorf("replica: epoch journal append: %w", err)
	}
	return nil
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.id }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Epoch returns the highest epoch this node has seen.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seen
}

// Granted returns this node's own epoch (its last grant; 0 if never
// primary).
func (n *Node) Granted() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.grant
}

// FenceCheck answers whether the node may act as primary right now: nil
// when it holds the highest epoch it has ever seen, a *FencedError
// otherwise. Stream options take exactly this function, so a demoted
// primary's appends and publishes fail typed.
func (n *Node) FenceCheck() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary && n.grant == n.seen && n.grant > 0 {
		return nil
	}
	return &FencedError{Epoch: n.grant, Seen: n.seen}
}

// Observe records an epoch seen elsewhere. Seeing a higher epoch than our
// own grant while primary is a demotion: the observation is persisted
// before it takes effect, so a restart cannot un-demote the node.
func (n *Node) Observe(epoch uint64, cause string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if epoch <= n.seen {
		return nil
	}
	if err := n.appendLocked(epochPayload{Epoch: epoch, Action: "observe", Cause: cause}); err != nil {
		return err
	}
	n.seen = epoch
	return nil
}

// Promote grants this node the fence token and makes it primary. The
// token must be strictly greater than every epoch the node has seen —
// callers obtain it out of band (the operator, or max(seen)+1 from
// /replstatus) — and the grant is journaled before the role changes, so
// the promotion survives a crash.
func (n *Node) Promote(fence uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if fence <= n.seen {
		return &FencedError{Epoch: fence, Seen: n.seen}
	}
	if err := n.appendLocked(epochPayload{Epoch: fence, Action: "grant", Cause: "promote"}); err != nil {
		return err
	}
	n.grant, n.seen = fence, fence
	n.role = RolePrimary
	return nil
}

// Close closes the epoch journal.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.w.Close()
}
