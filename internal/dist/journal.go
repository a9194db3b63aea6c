package dist

import (
	"vadasa/internal/journal"
)

// LeaseAction tags what a lease journal record witnesses.
const (
	// LeaseGrant: the epoch was issued to a worker for a task.
	LeaseGrant = "grant"
	// LeaseRevoke: the epoch was invalidated (timeout, transport failure,
	// corrupt reply) before any reply was admitted under it.
	LeaseRevoke = "revoke"
	// LeaseAccept: a reply carrying the epoch passed the fence; the task
	// is settled and every other epoch of the task is dead.
	LeaseAccept = "accept"
)

// LeasePayload is the journal.TypeLease record body. Lease records are
// advisory for a live run — the in-memory fence is authoritative — but
// they make reassignment crash-consistent: a supervisor restarting over
// the same journal seeds its epoch counter above every epoch ever granted
// (RecoverFence), so a worker surviving from the previous incarnation
// cannot have a stale reply admitted by the new one.
type LeasePayload struct {
	Run    string `json:"run"`
	Task   int    `json:"task"`
	Epoch  uint64 `json:"epoch"`
	Worker string `json:"worker,omitempty"`
	Action string `json:"action"`
}

// RecoverFence returns a journal apply callback — for journal.Open, or a
// loop over a journal.Iterator — that raises *floor to the highest lease
// epoch it is shown: the floor a restarted supervisor must start above
// (Options.FirstEpoch = floor + 1). Records that fail to decode are skipped:
// the journal layer already validated framing and checksums, and an unknown
// payload schema must not block recovery. Only tests call it today:
// cmd/vadasad gives its supervisor no lease journal, so there is nothing to
// restart over.
func RecoverFence(floor *uint64) func(journal.Record) error {
	return func(rec journal.Record) error {
		var p LeasePayload
		if rec.Type == journal.TypeLease && rec.Decode(&p) == nil {
			*floor = max(*floor, p.Epoch)
		}
		return nil
	}
}
