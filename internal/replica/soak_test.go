package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"vadasa/internal/stream"
)

// replSoakRun is one randomized primary-kill/promote-under-load round: a
// cluster with randomized commit mode and random ship-level faults takes a
// random write load, the primary is killed cold (no drain, no checkpoint),
// the standby is fenced into the primary role over whatever prefix it
// mirrored, and the promoted node must recover that prefix byte-identically
// and keep serving — while the demoted primary's writes fail fenced.
func replSoakRun(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	syncMode := rng.Intn(2) == 0
	var ft *FaultTransport
	c := newCluster(t, syncMode, func(tr Transport) Transport {
		ft = NewFaultTransport(tr)
		return ft
	})
	// Random ship-level faults across the run: drops, duplicates and torn
	// frames, each on its own ship index so every fault class is exercised
	// without stacking on one call.
	for i := 0; i < 6; i++ {
		n := 1 + rng.Intn(30)
		switch rng.Intn(3) {
		case 0:
			ft.DropShip(n)
		case 1:
			ft.DupShip(n)
		case 2:
			ft.TruncateShip(n)
		}
	}
	ctx := context.Background()
	s := c.openStream(ctx, "soak")

	nextRow, batch := 0, 0
	released, acked := 0, 0
	ops := 15 + rng.Intn(25)
	for op := 0; op < ops; op++ {
		switch {
		case rng.Intn(4) == 0 && nextRow > 0:
			info, err := s.Release(ctx)
			if err != nil {
				t.Fatalf("seed %d op %d: release: %v", seed, op, err)
			}
			released = info.Seq
			if rng.Intn(2) == 0 {
				if err := s.Ack(ctx, info.Seq); err != nil {
					t.Fatalf("seed %d op %d: ack: %v", seed, op, err)
				}
				acked = info.Seq
			}
		default:
			batch++
			rows := testRows(nextRow, 2*(1+rng.Intn(3)))
			_, err := s.Append(ctx, fmt.Sprintf("b%d", batch), rows)
			var se *SyncError
			if errors.As(err, &se) {
				// Synchronous commit lost its ack window to an injected
				// fault; the record was rolled back. Retrying the same
				// batch after the shipper recovers is the client contract.
				c.waitCaughtUp()
				_, err = s.Append(ctx, fmt.Sprintf("b%d", batch), rows)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: append: %v", seed, op, err)
			}
			nextRow += len(rows)
		}
	}
	c.waitCaughtUp()
	if d := c.standby.Diverged(); len(d) != 0 {
		t.Fatalf("seed %d: standby diverged under faults: %v", seed, d)
	}

	// Kill the primary cold: the shipper dies with it; its stream is never
	// drained. The standby holds some committed prefix of the WAL.
	c.primary.Close()

	primaryWAL, err := os.ReadFile(filepath.Join(c.streamDir, "soak.wal"))
	if err != nil {
		t.Fatalf("seed %d: reading primary WAL: %v", seed, err)
	}
	mirrorWAL, err := os.ReadFile(filepath.Join(c.mirrorDir, "soak.wal"))
	if err != nil {
		t.Fatalf("seed %d: reading mirror WAL: %v", seed, err)
	}
	if !bytes.HasPrefix(primaryWAL, mirrorWAL) {
		t.Fatalf("seed %d: mirror is not a byte prefix of the primary WAL (%d vs %d bytes)",
			seed, len(mirrorWAL), len(primaryWAL))
	}

	fence := c.sbNode.Epoch() + 1
	if err := c.standby.Promote(ctx, fence); err != nil {
		t.Fatalf("seed %d: promote: %v", seed, err)
	}

	// The promoted node recovers the mirror through the normal startup
	// path: any pending intent completes exactly once, any published
	// release is re-served from the materialized file.
	opts := testStreamOptions()
	opts.FenceCheck = c.sbNode.FenceCheck
	ps, err := stream.Open(ctx, "soak", filepath.Join(c.mirrorDir, "soak.wal"), opts)
	if err != nil {
		t.Fatalf("seed %d: opening promoted stream: %v", seed, err)
	}
	defer ps.Close(ctx)
	if pub := ps.Published(); pub != nil {
		if _, err := ps.ReleaseBytes(pub); err != nil {
			t.Fatalf("seed %d: promoted release bytes: %v", seed, err)
		}
		if pub.Seq <= acked || pub.Seq > released {
			t.Fatalf("seed %d: promoted release seq %d outside (%d, %d]", seed, pub.Seq, acked, released)
		}
	}

	// The promoted node takes writes: the same load shape keeps working.
	for i := 0; i < 3; i++ {
		batch++
		rows := testRows(nextRow, 2)
		if _, err := ps.Append(ctx, fmt.Sprintf("b%d", batch), rows); err != nil {
			t.Fatalf("seed %d: promoted append: %v", seed, err)
		}
		nextRow += 2
	}
	if pub := ps.Published(); pub == nil {
		info, err := ps.Release(ctx)
		if err != nil {
			t.Fatalf("seed %d: promoted release: %v", seed, err)
		}
		if err := ps.Ack(ctx, info.Seq); err != nil {
			t.Fatalf("seed %d: promoted ack: %v", seed, err)
		}
	}

	// The demoted primary learns the new epoch (in production via the
	// fencing 409 on its next shipment) and must refuse every write.
	if err := c.node.Observe(fence, "soak promotion"); err != nil {
		t.Fatalf("seed %d: observe: %v", seed, err)
	}
	if _, err := s.Append(ctx, "after-demotion", testRows(nextRow, 2)); !IsFenced(err) {
		t.Fatalf("seed %d: demoted append error = %v, want fenced", seed, err)
	}
}

// TestReplChaosRandomized is the gating slice of the replication soak: the
// same randomized failover round over a fixed list of seeds, so a failure
// names the seed that reproduces it.
func TestReplChaosRandomized(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { replSoakRun(t, seed) })
	}
}

// TestReplSoak is the replication half of `make soak`: randomized
// primary-kill/promote-under-load rounds with fresh logged seeds, bounded
// by VADASA_SOAK_SECONDS of wall clock. Only runs when VADASA_SOAK is set
// so the tier-1 suite stays fast.
func TestReplSoak(t *testing.T) {
	if os.Getenv("VADASA_SOAK") == "" {
		t.Skip("set VADASA_SOAK=1 (or run `make soak`) to run the replication soak")
	}
	budget := 60 * time.Second
	if v := os.Getenv("VADASA_SOAK_SECONDS"); v != "" {
		secs, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad VADASA_SOAK_SECONDS %q: %v", v, err)
		}
		budget = time.Duration(secs) * time.Second
	}
	deadline := time.Now().Add(budget)
	seed := int64(time.Now().UnixNano()) // soak explores; chaos tests pin seeds
	runs := 0
	for time.Now().Before(deadline) {
		seed++
		runs++
		t.Run(fmt.Sprintf("run%d_seed%d", runs, seed), func(t *testing.T) {
			replSoakRun(t, seed)
		})
	}
	t.Logf("soak: %d randomized failover runs in %v (last seed %d)", runs, budget, seed)
}
