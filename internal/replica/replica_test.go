package replica

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/stream"
)

func testAttrs() []mdb.Attribute {
	return []mdb.Attribute{
		{Name: "Id", Category: mdb.Identifier},
		{Name: "Sector", Category: mdb.QuasiIdentifier},
		{Name: "Region", Category: mdb.QuasiIdentifier},
		{Name: "Size", Category: mdb.QuasiIdentifier},
		{Name: "Weight", Category: mdb.Weight},
	}
}

// testRows pairs quasi-identifiers by absolute index so an even-sized
// window starting at an even offset satisfies k=2 with no suppressions.
func testRows(start, n int) [][]string {
	out := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		k := (start + i) / 2
		out = append(out, []string{
			fmt.Sprintf("c%d", start+i),
			fmt.Sprintf("sector%d", k%3),
			fmt.Sprintf("region%d", k%2),
			fmt.Sprintf("size%d", k%4),
			fmt.Sprintf("%d", 10+(start+i)%5),
		})
	}
	return out
}

func testStreamOptions() stream.Options {
	return stream.Options{
		Assessor:  risk.KAnonymity{K: 2},
		Threshold: 0.5,
		Semantics: mdb.MaybeMatch,
		Attrs:     testAttrs(),
	}
}

// localTransport delivers shipments straight into a Standby in-process.
type localTransport struct {
	sb   *Standby
	addr string
}

func (l *localTransport) Ship(ctx context.Context, req *ShipRequest) (*ShipResponse, error) {
	return l.sb.HandleShip(ctx, req)
}
func (l *localTransport) Addr() string { return l.addr }
func (l *localTransport) Close() error { return nil }

// cluster is a one-primary one-standby harness over real files.
type cluster struct {
	t         testing.TB
	dir       string
	node      *Node // primary's fencing authority
	sbNode    *Node // standby's fencing authority
	primary   *Primary
	standby   *Standby
	transport Transport
	streamDir string // primary's stream WALs
	mirrorDir string // standby's mirrored stream WALs
}

func newCluster(t testing.TB, sync bool, wrap func(Transport) Transport) *cluster {
	t.Helper()
	dir := t.TempDir()
	c := &cluster{t: t, dir: dir,
		streamDir: filepath.Join(dir, "primary"),
		mirrorDir: filepath.Join(dir, "standby"),
	}
	if err := faultfs.OS.MkdirAll(c.streamDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var err error
	c.node, err = OpenNode("p1", filepath.Join(c.streamDir, NodeJournalName), RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.sbNode, err = OpenNode("s1", filepath.Join(dir, "standby-"+NodeJournalName), RoleStandby, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.standby, err = NewStandby(StandbyOptions{
		Node:       c.sbNode,
		Roots:      map[string]Root{"stream": {Dir: c.mirrorDir, Ext: ".wal"}},
		FollowRoot: "stream",
		FollowerOptions: func(*stream.Info) (stream.Options, error) {
			return testStreamOptions(), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.transport = &localTransport{sb: c.standby, addr: "local"}
	if wrap != nil {
		c.transport = wrap(c.transport)
	}
	c.primary, err = NewPrimary(PrimaryOptions{
		Node:           c.node,
		Peers:          []Transport{c.transport},
		Sync:           sync,
		DigestInterval: -1, // tests drive RefreshDigests directly
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.primary.Start()
	t.Cleanup(func() {
		c.primary.Close()
		c.standby.Close()
		c.node.Close()
		c.sbNode.Close()
	})
	return c
}

// openStream opens a primary-side stream wired into the shipper.
func (c *cluster) openStream(ctx context.Context, id string) *stream.Stream {
	c.t.Helper()
	path := filepath.Join(c.streamDir, id+".wal")
	opts := testStreamOptions()
	opts.FenceCheck = c.node.FenceCheck
	opts.OnAppend = c.primary.Hook("stream/"+id, path)
	s, err := stream.Open(ctx, id, path, opts)
	if err != nil {
		c.t.Fatal(err)
	}
	c.primary.Register("stream/"+id, path, s.JournalSeq(), func(ctx context.Context) (*LogDigest, error) {
		d, err := s.Digest(ctx)
		if err != nil {
			return nil, err
		}
		return &LogDigest{Seq: d.Seq, Rows: d.Rows, Window: d.Window, Risk: d.Risk}, nil
	})
	return s
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *cluster) waitCaughtUp() {
	c.t.Helper()
	waitFor(c.t, "replication to catch up", func() bool { return c.primary.Lag() == 0 })
}

func TestNodeEpochLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, NodeJournalName)

	n, err := OpenNode("n1", path, RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 1 || n.Granted() != 1 {
		t.Fatalf("fresh primary epoch %d/%d, want 1/1", n.Granted(), n.Epoch())
	}
	if err := n.FenceCheck(); err != nil {
		t.Fatalf("fresh primary fenced: %v", err)
	}
	// Seeing a higher epoch demotes, durably.
	if err := n.Observe(3, "test"); err != nil {
		t.Fatal(err)
	}
	if err := n.FenceCheck(); !IsFenced(err) {
		t.Fatalf("demoted primary FenceCheck = %v, want *FencedError", err)
	}
	n.Close()

	// A restart cannot un-demote.
	n, err = OpenNode("n1", path, RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.FenceCheck(); !IsFenced(err) {
		t.Fatalf("restarted demoted primary FenceCheck = %v, want *FencedError", err)
	}
	// A stale fence token is rejected; a fresh one re-promotes.
	if err := n.Promote(3); !IsFenced(err) {
		t.Fatalf("Promote(3) after seeing 3 = %v, want *FencedError", err)
	}
	if err := n.Promote(4); err != nil {
		t.Fatal(err)
	}
	if err := n.FenceCheck(); err != nil {
		t.Fatalf("re-promoted node fenced: %v", err)
	}
	n.Close()

	// The grant survives another restart.
	n, err = OpenNode("n1", path, RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Granted() != 4 || n.Epoch() != 4 {
		t.Fatalf("restarted epoch %d/%d, want 4/4", n.Granted(), n.Epoch())
	}
	if err := n.FenceCheck(); err != nil {
		t.Fatalf("restarted promoted node fenced: %v", err)
	}
}

func TestShipAndFollow(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)

	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, "b2", testRows(6, 4)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()

	fol := c.standby.Follower("stream/trades")
	if fol == nil {
		t.Fatal("standby has no follower for the shipped stream")
	}
	if fol.Seq() != s.JournalSeq() {
		t.Fatalf("follower at seq %d, primary at %d", fol.Seq(), s.JournalSeq())
	}
	st := fol.Status(ctx)
	if st.Rows != 10 || st.Batches != 2 {
		t.Fatalf("follower status %+v, want 10 rows in 2 batches", st)
	}

	// The mirrored WAL is byte-identical to the primary's.
	want, err := faultfs.OS.ReadFile(filepath.Join(c.streamDir, "trades.wal"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := faultfs.OS.ReadFile(filepath.Join(c.mirrorDir, "trades.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("mirror differs from primary WAL: %d vs %d bytes", len(got), len(want))
	}

	// The follower's recomputed digest matches the primary's at the same
	// position — shipped digests report no divergence.
	c.primary.RefreshDigests(ctx)
	waitFor(t, "digest shipment", func() bool {
		st := c.standby.Status()
		return !st.LastShip.IsZero()
	})
	c.waitCaughtUp()
	pd, err := s.Digest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := fol.Digest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pd.Equal(fd) {
		t.Fatalf("digests diverge: primary %+v, follower %+v", pd, fd)
	}
	if d := c.standby.Diverged(); len(d) != 0 {
		t.Fatalf("standby reports divergence %v for identical state", d)
	}
	if d := c.primary.Status().Diverged; len(d) != 0 {
		t.Fatalf("primary recorded divergence %v for identical state", d)
	}
}

func TestShipFaultsConverge(t *testing.T) {
	ctx := context.Background()
	var ft *FaultTransport
	c := newCluster(t, false, func(inner Transport) Transport {
		ft = NewFaultTransport(inner)
		return ft
	})
	// Drop the first shipment, tear the second, duplicate the third: the
	// retry loop, the framing rules and the sequence check must absorb all
	// three without poisoning the mirror.
	ft.DropShip(1)
	ft.TruncateShip(2)
	ft.DupShip(3)

	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	if ft.Ships() < 3 {
		t.Fatalf("only %d shipments; the armed faults did not all fire", ft.Ships())
	}

	fol := c.standby.Follower("stream/trades")
	if fol == nil || fol.Seq() != s.JournalSeq() {
		t.Fatalf("standby did not converge (follower %v)", fol)
	}
	want, _ := faultfs.OS.ReadFile(filepath.Join(c.streamDir, "trades.wal"))
	got, _ := faultfs.OS.ReadFile(filepath.Join(c.mirrorDir, "trades.wal"))
	if !bytes.Equal(want, got) {
		t.Fatal("mirror differs from primary WAL after injected faults")
	}
	if d := c.standby.Diverged(); len(d) != 0 {
		t.Fatalf("faults marked the standby diverged: %v", d)
	}
}

func TestSyncCommitAcksBeforeReturn(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, true, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)

	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	// Synchronous commit: by the time Append returns, the standby has the
	// records durable — no waiting.
	if lag := c.primary.Lag(); lag != 0 {
		t.Fatalf("sync append returned with %d unacknowledged records", lag)
	}
	if fol := c.standby.Follower("stream/trades"); fol == nil || fol.Seq() != s.JournalSeq() {
		t.Fatal("standby behind after synchronous append")
	}
}

// deadTransport fails every shipment — a peer that is down.
type deadTransport struct{}

func (deadTransport) Ship(ctx context.Context, req *ShipRequest) (*ShipResponse, error) {
	return nil, errors.New("injected: peer down")
}
func (deadTransport) Addr() string { return "dead" }
func (deadTransport) Close() error { return nil }

func TestSyncCommitFailsAndRepairsWithoutFollower(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	node, err := OpenNode("p1", filepath.Join(dir, NodeJournalName), RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	defer func(d time.Duration) { syncTimeout = d }(syncTimeout) // restored once Close has stopped the shipper
	syncTimeout = 50 * time.Millisecond
	p, err := NewPrimary(PrimaryOptions{
		Node:           node,
		Peers:          []Transport{deadTransport{}},
		Sync:           true,
		DigestInterval: -1,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()

	path := filepath.Join(dir, "trades.wal")
	opts := testStreamOptions()
	opts.FenceCheck = node.FenceCheck
	opts.OnAppend = p.Hook("stream/trades", path)
	// With no follower reachable even the create record cannot commit: the
	// stream never opens, and nothing it wrote survives.
	if _, err := stream.Open(ctx, "trades", path, opts); err == nil {
		t.Fatal("stream.Open committed a record with no follower acknowledging it")
	} else {
		var se *SyncError
		if !errors.As(err, &se) {
			t.Fatalf("Open error %v, want a wrapped *SyncError", err)
		}
	}
}

// intentDigest reads the pending release intent recorded in a WAL.
func intentDigest(t *testing.T, path string) (string, int) {
	t.Helper()
	it, err := journal.RecordsIn(context.Background(), faultfs.OS, path, journal.Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	digest, rows := "", 0
	for it.Next() {
		rec := it.Record()
		if rec.Type != "intent" {
			continue
		}
		var p struct {
			Rows   int    `json:"rows"`
			Digest string `json:"digest"`
		}
		if err := rec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		digest, rows = p.Digest, p.Rows
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return digest, rows
}

// TestFailoverMidIntent is the acceptance scenario: the primary dies
// between journaling a release intent and publishing it, the standby is
// promoted with a higher fence, completes the very same release
// byte-identically through the normal recovery path, and the demoted
// primary's subsequent writes fail with the typed fencing error.
func TestFailoverMidIntent(t *testing.T) {
	ctx := context.Background()
	var crashed bool
	var mu sync.Mutex
	c := newCluster(t, true, nil)

	// Wire the stream through a hook that "crashes" the primary when the
	// publish record tries to commit: the intent before it has shipped
	// (synchronous commit), the publish has not — exactly the SIGKILL
	// window between intent and publish.
	id := "trades"
	path := filepath.Join(c.streamDir, id+".wal")
	opts := testStreamOptions()
	opts.FenceCheck = c.node.FenceCheck
	inner := c.primary.Hook("stream/"+id, path)
	opts.OnAppend = func(seq int, line []byte) error {
		mu.Lock()
		armed := crashed
		mu.Unlock()
		if armed && bytes.Contains(line, []byte(`"type":"publish"`)) {
			return errors.New("injected crash before publish")
		}
		return inner(seq, line)
	}
	s, err := stream.Open(ctx, id, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	c.primary.Register("stream/"+id, path, s.JournalSeq(), func(ctx context.Context) (*LogDigest, error) {
		d, err := s.Digest(ctx)
		if err != nil {
			return nil, err
		}
		return &LogDigest{Seq: d.Seq, Rows: d.Rows, Window: d.Window, Risk: d.Risk}, nil
	})

	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	crashed = true
	mu.Unlock()
	if _, err := s.Release(ctx); err == nil {
		t.Fatal("release completed through the injected crash")
	}
	// The publish record was truncated by Repair; the intent is the
	// primary WAL's last word, and the standby mirrors it exactly.
	c.waitCaughtUp()
	wantDigest, wantRows := intentDigest(t, path)
	if wantDigest == "" {
		t.Fatal("no intent record in the primary WAL")
	}
	gotDigest, _ := intentDigest(t, filepath.Join(c.mirrorDir, id+".wal"))
	if gotDigest != wantDigest {
		t.Fatalf("mirrored intent digest %q, want %q", gotDigest, wantDigest)
	}

	// Promote the standby with a fence above every epoch it has seen.
	fence := c.sbNode.Epoch() + 1
	if err := c.standby.Promote(ctx, fence); err != nil {
		t.Fatal(err)
	}
	// Promotion is the normal startup recovery over the mirrored WAL: the
	// pending intent completes into a published release.
	pOpts := testStreamOptions()
	pOpts.FenceCheck = c.sbNode.FenceCheck
	ps, err := stream.Open(ctx, id, filepath.Join(c.mirrorDir, id+".wal"), pOpts)
	if err != nil {
		t.Fatalf("promoted open: %v", err)
	}
	defer ps.Close(ctx)
	info, err := ps.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Digest != wantDigest || info.Rows != wantRows {
		t.Fatalf("promoted release %+v, want digest %q rows %d", info, wantDigest, wantRows)
	}
	b, err := ps.ReleaseBytes(info)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if hex.EncodeToString(sum[:]) != wantDigest {
		t.Fatal("promoted release bytes contradict the intent digest")
	}
	// Exactly once: re-requesting serves the same release, not a new one.
	again, err := ps.Release(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq != info.Seq || again.Digest != info.Digest {
		t.Fatalf("re-served release %+v, want %+v", again, info)
	}

	// The demoted primary learns its place through the ship channel (the
	// promoted standby refuses its shipments), and every write path fails
	// with the typed fencing error.
	mu.Lock()
	crashed = false
	mu.Unlock()
	c.primary.RefreshDigests(ctx) // wakes the ship loop
	waitFor(t, "primary demotion", func() bool { return IsFenced(c.node.FenceCheck()) })
	if _, err := s.Append(ctx, "b2", testRows(6, 4)); !IsFenced(err) {
		t.Fatalf("demoted primary Append = %v, want *FencedError", err)
	}
	if _, err := s.Release(ctx); !IsFenced(err) {
		t.Fatalf("demoted primary Release = %v, want *FencedError", err)
	}
	// A demoted primary restarting with that pending intent must refuse to
	// reopen the stream — completing the publish would double-release.
	s.Close(ctx)
	rOpts := testStreamOptions()
	rOpts.FenceCheck = c.node.FenceCheck
	if rs, err := stream.Open(ctx, id, path, rOpts); err == nil {
		rs.Close(ctx)
		t.Fatal("demoted primary reopened a stream with a pending intent")
	} else if !IsFenced(err) {
		t.Fatalf("demoted reopen error %v, want *FencedError", err)
	}
}

func TestStandbyRejectsStaleEpochAndDivergenceIsSticky(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()

	// A shipment from a lower epoch than the standby has seen is fenced.
	if err := c.sbNode.Observe(9, "test"); err != nil {
		t.Fatal(err)
	}
	_, err := c.standby.HandleShip(ctx, &ShipRequest{Primary: "old", Epoch: 1})
	if !IsFenced(err) {
		t.Fatalf("stale-epoch shipment = %v, want *FencedError", err)
	}

	// A digest that contradicts the replayed state marks the log diverged,
	// stickily.
	fol := c.standby.Follower("stream/trades")
	resp, err := c.standby.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 9, Digests: []LogDigest{{
		Log: "stream/trades", Seq: fol.Seq(), Rows: 6,
		Window: "0000000000000000000000000000000000000000000000000000000000000000",
		Risk:   "0000000000000000000000000000000000000000000000000000000000000000",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Diverged) != 1 || resp.Diverged[0] != "stream/trades" {
		t.Fatalf("diverged = %v, want [stream/trades]", resp.Diverged)
	}
	resp, err = c.standby.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Diverged) != 1 {
		t.Fatalf("divergence not sticky: %v", resp.Diverged)
	}
}

func TestStandbyRecoverResumes(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	seq := c.standby.Follower("stream/trades").Seq()
	c.standby.Close()

	// A restarted standby picks the mirror back up from its files alone.
	sb2, err := NewStandby(StandbyOptions{
		Node:       c.sbNode,
		Roots:      map[string]Root{"stream": {Dir: c.mirrorDir, Ext: ".wal"}},
		FollowRoot: "stream",
		FollowerOptions: func(*stream.Info) (stream.Options, error) {
			return testStreamOptions(), nil
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb2.Close()
	if err := sb2.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	fol := sb2.Follower("stream/trades")
	if fol == nil || fol.Seq() != seq {
		t.Fatalf("recovered standby follower %v, want seq %d", fol, seq)
	}
	// Duplicate frames below the durable floor are absorbed silently.
	data, err := faultfs.OS.ReadFile(filepath.Join(c.mirrorDir, "trades.wal"))
	if err != nil {
		t.Fatal(err)
	}
	first := data[:bytes.IndexByte(data, '\n')]
	resp, err := sb2.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: []Frame{
		{Log: "stream/trades", Seq: 1, Line: first},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acked["stream/trades"] != seq {
		t.Fatalf("ack after duplicate = %d, want %d", resp.Acked["stream/trades"], seq)
	}
	after, _ := faultfs.OS.ReadFile(filepath.Join(c.mirrorDir, "trades.wal"))
	if !bytes.Equal(data, after) {
		t.Fatal("duplicate frame mutated the mirror")
	}
}

func TestStandbyRejectsGapsAndCorruptFrames(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	seq := c.standby.Follower("stream/trades").Seq()

	// A gapped frame is not applied and not acked past the floor.
	resp, err := c.standby.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: []Frame{
		{Log: "stream/trades", Seq: seq + 5, Line: []byte("deadbeef {}")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acked["stream/trades"] != seq {
		t.Fatalf("gap advanced the ack to %d", resp.Acked["stream/trades"])
	}
	// A corrupt frame at the right sequence is rejected by the CRC.
	resp, err = c.standby.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: []Frame{
		{Log: "stream/trades", Seq: seq + 1, Line: []byte("deadbeef {\"broken\":true}")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acked["stream/trades"] != seq {
		t.Fatalf("corrupt frame advanced the ack to %d", resp.Acked["stream/trades"])
	}
	if d := c.standby.Diverged(); len(d) != 0 {
		t.Fatalf("transport corruption must not mark divergence, got %v", d)
	}
	// Path-escaping log names are refused outright.
	resp, err = c.standby.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: []Frame{
		{Log: "stream/../evil", Seq: 1, Line: []byte("deadbeef {}")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.Acked["stream/../evil"]; ok {
		t.Fatal("standby acked a path-escaping log name")
	}
}

// cutsOfLastRecord returns the journal at path cut at every byte offset of
// its last record: cuts[0] is the clean prefix (the record entirely
// missing), the rest end inside the record.
func cutsOfLastRecord(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := faultfs.OS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prefix := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	var cuts [][]byte
	for cut := prefix; cut < len(data); cut++ {
		cuts = append(cuts, data[:cut])
	}
	return cuts
}

// The epoch-node row of the journal conformance suite: a crash that cuts the
// last epoch record anywhere leaves the node exactly where the record before
// it put it — here, a primary demoted by an observed epoch 3 whose
// re-promotion to 4 never committed comes back fenced at 1/3, every time.
func TestNodeEpochJournalAtEveryCutOfLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), NodeJournalName)
	n, err := OpenNode("n1", path, RolePrimary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Observe(3, "test"); err != nil {
		t.Fatal(err)
	}
	if err := n.Promote(4); err != nil {
		t.Fatal(err)
	}
	n.Close()
	for i, cut := range cutsOfLastRecord(t, path) {
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := OpenNode("n1", path, RolePrimary, nil)
		if err != nil {
			t.Fatalf("cut %d: %v", i, err)
		}
		if n.Granted() != 1 || n.Epoch() != 3 || !IsFenced(n.FenceCheck()) {
			t.Fatalf("cut %d: node at %d/%d fence %v, want fenced at 1/3", i, n.Granted(), n.Epoch(), n.FenceCheck())
		}
		if err := n.Promote(4); err != nil {
			t.Fatalf("cut %d: promoting over the repaired journal: %v", i, err)
		}
		n.Close()
	}
}

// The standby-mirror row: a standby that crashed while a shipped frame was
// landing restarts with the mirror at the last whole record — ack, follower
// and file all on the clean prefix — and takes the frame again.
func TestStandbyRecoverAtEveryCutOfLastRecord(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, "b2", testRows(4, 4)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	c.standby.Close()
	c.primary.Close()

	mirror := filepath.Join(c.mirrorDir, "trades.wal")
	cuts := cutsOfLastRecord(t, mirror)
	whole, err := faultfs.OS.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}
	last := Frame{Log: "stream/trades", Seq: 3, Line: whole[len(cuts[0]) : len(whole)-1]}
	for i, cut := range cuts {
		if err := os.WriteFile(mirror, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		sb, err := NewStandby(c.standby.opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sb.Recover(ctx); err != nil {
			t.Fatal(err)
		}
		if fol := sb.Follower("stream/trades"); fol == nil || fol.Seq() != 2 || fol.Status(ctx).Rows != 4 {
			t.Fatalf("cut %d: recovered follower %+v, want seq 2 over 4 rows", i, fol)
		}
		resp, err := sb.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: []Frame{last}})
		if err != nil || resp.Acked["stream/trades"] != 3 {
			t.Fatalf("cut %d: re-shipping the torn frame: %+v, %v", i, resp, err)
		}
		if rows := sb.Follower("stream/trades").Status(ctx).Rows; rows != 8 {
			t.Fatalf("cut %d: follower holds %d rows after the re-ship, want 8", i, rows)
		}
		sb.Close()
		if after, _ := faultfs.OS.ReadFile(mirror); !bytes.Equal(after, whole) {
			t.Fatalf("cut %d: mirror differs from the primary's bytes after the re-ship", i)
		}
	}
}

// A mirror whose follower cannot replay it still recovers whole: Recover
// opens it at its durable floor, which it acks, and later shipments append
// to it, while the follower is dropped, the failure logged and shown in
// Status. The mirror's journal is sound; only its replay fails, on a
// second batch record, its CRC valid, that repeats a batch id.
func TestStandbyRecoverKeepsMirrorWhenFollowerFails(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	c.standby.Close()
	c.primary.Close()

	mirror := filepath.Join(c.mirrorDir, "trades.wal")
	w, err := journal.Open(ctx, mirror, journal.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("batch", map[string]any{"batch": "b1", "rows": testRows(4, 2)}); err != nil {
		t.Fatal(err)
	}
	floor := w.Seq()
	w.Close()
	data, err := os.ReadFile(mirror)
	if err != nil {
		t.Fatal(err)
	}
	// The two records after the floor, framed as the primary would ship them.
	spare := filepath.Join(t.TempDir(), "spare.wal")
	if err := os.WriteFile(spare, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var next [][]byte
	w, err = journal.Open(ctx, spare, journal.Config{OnAppend: func(_ int, line []byte) error {
		next = append(next, bytes.Clone(line))
		return nil
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append("checkpoint", map[string]int{"batches": 2}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	var mu sync.Mutex
	var logged []string
	opts := c.standby.opts
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	sb, err := NewStandby(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if err := sb.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	st := sb.Status()
	if len(st.Logs) != 1 || st.Logs[0].Seq != floor || st.Logs[0].Follower || !strings.Contains(st.Logs[0].LastError, "journaled twice") {
		t.Fatalf("recovered standby status %+v, want stream/trades at seq %d with no follower and its replay error", st, floor)
	}
	mu.Lock()
	if len(logged) == 0 || !strings.HasPrefix(logged[0], "replica: follower for stream/trades: ") || !strings.Contains(logged[0], "journaled twice") {
		t.Fatalf("recovery log %q", logged)
	}
	mu.Unlock()
	resp, err := sb.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1})
	if err != nil || resp.Acked["stream/trades"] != floor {
		t.Fatalf("ack after recovery: %+v, %v; want %d", resp, err, floor)
	}
	// Each shipment lands on the mirror; neither replays it into the
	// follower again, since the same records would fail the same way.
	for i, line := range next {
		seq := floor + 1 + i
		resp, err = sb.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: []Frame{{Log: "stream/trades", Seq: seq, Line: line}}})
		if err != nil || resp.Acked["stream/trades"] != seq {
			t.Fatalf("shipment after recovery: %+v, %v; want acked at %d", resp, err, seq)
		}
		data = append(data, append(line, '\n')...)
		if after, _ := os.ReadFile(mirror); !bytes.Equal(after, data) {
			t.Fatalf("shipped record %d did not land on the mirror", seq)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	replays := 0
	for _, l := range logged {
		if strings.Contains(l, "journaled twice") {
			replays++
		}
	}
	if replays != 1 {
		t.Fatalf("the replay error was logged %d times, want once: %q", replays, logged)
	}
}

// openCounter counts the opens of each file made through it.
type openCounter struct {
	faultfs.FS
	mu    sync.Mutex
	opens map[string]int
}

func (c *openCounter) count(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opens[name]++
}

func (c *openCounter) Open(name string) (faultfs.File, error) {
	c.count(name)
	return c.FS.Open(name)
}

func (c *openCounter) OpenFile(name string, flag int, perm iofs.FileMode) (faultfs.File, error) {
	c.count(name)
	return c.FS.OpenFile(name, flag, perm)
}

// A restarted standby opens each mirrored stream WAL once: the read that
// opens the mirror also replays it into the follower.
func TestStandbyRecoverOpensEachMirrorOnce(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	ids := []string{"a", "b", "c"}
	for i, id := range ids {
		s := c.openStream(ctx, id)
		defer s.Close(ctx)
		if _, err := s.Append(ctx, "b1", testRows(0, 2*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	c.waitCaughtUp()
	c.standby.Close()

	fs := &openCounter{FS: faultfs.OS, opens: map[string]int{}}
	sb, err := NewStandby(StandbyOptions{
		Node:       c.sbNode,
		Roots:      map[string]Root{"stream": {Dir: c.mirrorDir, Ext: ".wal"}},
		FollowRoot: "stream",
		FollowerOptions: func(*stream.Info) (stream.Options, error) {
			opts := testStreamOptions()
			opts.FS = fs
			return opts, nil
		},
		FS:   fs,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if err := sb.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if fol := sb.Follower("stream/" + id); fol == nil || fol.Status(ctx).Rows != 2*(i+1) {
			t.Fatalf("recovered follower of %s: %v", id, fol)
		}
		if n := fs.opens[filepath.Join(c.mirrorDir, id+".wal")]; n != 1 {
			t.Fatalf("Recover opened the mirror of %s %d times, want once", id, n)
		}
	}
}

// A standby given OpenFollower in place of FollowerOptions follows all the
// same: the factory replays the mirror, both when Recover opens it and
// when a fresh mirror takes its first shipment.
func TestStandbyFollowsThroughOpenFollower(t *testing.T) {
	ctx := context.Background()
	c := newCluster(t, false, nil)
	s := c.openStream(ctx, "trades")
	defer s.Close(ctx)
	if _, err := s.Append(ctx, "b1", testRows(0, 6)); err != nil {
		t.Fatal(err)
	}
	c.waitCaughtUp()
	c.standby.Close()

	opts := c.standby.opts
	opts.FollowerOptions = nil
	opts.OpenFollower = func(ctx context.Context, id, path string) (*stream.Follower, error) {
		return stream.OpenFollower(ctx, id, path, testStreamOptions())
	}
	sb, err := NewStandby(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if fol := sb.Follower("stream/trades"); fol == nil || fol.Status(ctx).Rows != 6 {
		t.Fatalf("recovered follower %v, want 6 rows", fol)
	}
	sb.Close()

	data, err := os.ReadFile(filepath.Join(c.streamDir, "trades.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var frames []Frame
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		frames = append(frames, Frame{Log: "stream/trades", Seq: i + 1, Line: line})
	}
	opts.Roots = map[string]Root{"stream": {Dir: t.TempDir(), Ext: ".wal"}}
	sb, err = NewStandby(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	resp, err := sb.HandleShip(ctx, &ShipRequest{Primary: "p1", Epoch: 1, Frames: frames})
	if err != nil || resp.Acked["stream/trades"] != len(frames) {
		t.Fatalf("first shipment: %+v, %v; want acked at %d", resp, err, len(frames))
	}
	if fol := sb.Follower("stream/trades"); fol == nil || fol.Seq() != len(frames) || fol.Status(ctx).Rows != 6 {
		t.Fatalf("follower after the first shipment %v, want seq %d over 6 rows", fol, len(frames))
	}
}
