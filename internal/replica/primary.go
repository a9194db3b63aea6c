package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
)

// DigestFunc produces the current state digest of one log — on a server,
// a closure over Stream.Digest. It is called from the primary's digest
// loop, never from the ship loop, so a synchronous append waiting for an
// ack can never deadlock against a digest computation that needs the
// stream's lock.
type DigestFunc func(ctx context.Context) (*LogDigest, error)

// SyncError is the typed failure of a synchronous commit: no follower
// acknowledged the record within the timeout. The journal append that
// carried the record fails, and the journal truncates it away — the
// record never happened as far as clients are concerned. (If a follower
// applied the frame but its ack was lost, the mirror runs one record
// ahead; the divergence detector reports it rather than letting it fester.)
type SyncError struct {
	Log  string
	Seq  int
	Wait time.Duration
}

func (e *SyncError) Error() string {
	return fmt.Sprintf("replica: no follower acknowledged %s@%d within %s", e.Log, e.Seq, e.Wait)
}

// PrimaryOptions tunes the shipper. Zero values select defaults.
type PrimaryOptions struct {
	// Node is the fencing authority. Required.
	Node *Node
	// Peers are the standbys to ship to. At least one is required in
	// Sync mode.
	Peers []Transport
	// Sync makes every journal append wait until a follower has
	// acknowledged the record (or syncTimeout passes, failing the
	// append).
	Sync bool
	// LagMax, when positive, is the un-acked record count above which
	// ReadyErr reports the primary unhealthy (async mode's safety valve).
	LagMax int
	// DigestInterval is the cadence of the digest loop (default 2s;
	// negative disables the loop — tests drive RefreshDigests directly).
	DigestInterval time.Duration
	// FS is the filesystem journal files are read through (nil = real).
	FS faultfs.FS
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// The shipper's fixed timing. The three variables are variables only so
// that this package's tests can shorten the timers; nothing else sets them.
const (
	batchMax    = 256              // frames per shipment
	shipTimeout = 10 * time.Second // one shipment round-trip
)

var (
	syncTimeout = 5 * time.Second       // the synchronous-commit wait
	retryBase   = 50 * time.Millisecond // first retry backoff, doubling to retryCap
	retryCap    = 2 * time.Second
)

// plog is one shipped journal on the primary side.
type plog struct {
	path   string
	tail   int // last committed sequence on disk
	digest DigestFunc
	dig    *LogDigest // latest digest the digest loop computed
}

// peer is one standby from the primary's point of view. cursors remembers
// where each log's next frame read starts, so shipping costs O(new bytes):
// committed journal bytes are immutable (only uncommitted tails are ever
// truncated), so a cursor goes stale only when a shipment fails mid-flight or
// a sync-mode record it read is rolled back — then it rewinds to the start
// and re-skips, the rare-path price.
type peer struct {
	t          Transport
	wake       chan struct{}
	acked      map[string]int
	cursors    map[string]journal.Cursor
	sentDigest map[string]int // last digest seq shipped per log
	lastErr    string
	fails      int
	shipped    int64 // frames successfully acknowledged
}

// Primary ships committed journal records to every peer, each on its own
// goroutine with bounded exponential backoff, and tracks per-peer acks.
// Logs register themselves lazily through Hook — the journal append
// observer — so the create record of a brand-new stream is already
// replicated by the time its Open returns.
type Primary struct {
	opts PrimaryOptions
	fs   faultfs.FS

	mu       sync.Mutex
	logs     map[string]*plog
	peers    []*peer
	diverged map[string]bool
	ackWait  chan struct{} // closed + replaced on every ack advance
	started  bool
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewPrimary builds a shipper. Call Register/Hook to attach logs, then
// Start.
func NewPrimary(opts PrimaryOptions) (*Primary, error) {
	if opts.Node == nil {
		return nil, fmt.Errorf("replica: PrimaryOptions.Node is required")
	}
	if opts.Sync && len(opts.Peers) == 0 {
		return nil, fmt.Errorf("replica: synchronous commit needs at least one peer")
	}
	fs := opts.FS
	if fs == nil {
		fs = faultfs.OS
	}
	p := &Primary{
		opts:     opts,
		fs:       fs,
		logs:     make(map[string]*plog),
		diverged: make(map[string]bool),
		ackWait:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, t := range opts.Peers {
		p.peers = append(p.peers, &peer{
			t:          t,
			wake:       make(chan struct{}, 1),
			acked:      make(map[string]int),
			cursors:    make(map[string]journal.Cursor),
			sentDigest: make(map[string]int),
		})
	}
	return p, nil
}

func (p *Primary) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// Register attaches (or updates) a shipped log: its file path, its current
// journal tail, and optionally a digest source for divergence detection.
// Safe before or after Start; registering an already-hooked log only adds
// what is missing.
func (p *Primary) Register(log, path string, tail int, digest DigestFunc) {
	p.mu.Lock()
	pl := p.logs[log]
	if pl == nil {
		pl = &plog{path: path}
		p.logs[log] = pl
	}
	if pl.path == "" {
		pl.path = path
	}
	if tail > pl.tail {
		pl.tail = tail
	}
	if digest != nil {
		pl.digest = digest
	}
	p.mu.Unlock()
	p.wakePeers()
}

// Unregister detaches a log (a closed stream); already-shipped frames
// stay shipped.
func (p *Primary) Unregister(log string) {
	p.mu.Lock()
	delete(p.logs, log)
	p.mu.Unlock()
}

// Hook returns the journal append observer for one log — the function a
// stream's Options.OnAppend (or the jobs manager's equivalent) carries.
// Asynchronous mode notes the new tail and wakes the shippers; synchronous
// mode additionally blocks until a follower acknowledges the sequence.
func (p *Primary) Hook(log, path string) func(seq int, line []byte) error {
	return func(seq int, line []byte) error {
		p.mu.Lock()
		pl := p.logs[log]
		if pl == nil {
			pl = &plog{path: path}
			p.logs[log] = pl
		}
		if seq > pl.tail {
			pl.tail = seq
		}
		p.mu.Unlock()
		p.wakePeers()
		if !p.opts.Sync {
			return nil
		}
		return p.waitAck(log, seq)
	}
}

// waitAck blocks until any peer's ack covers (log, seq), the timeout
// passes, or the shipper closes.
func (p *Primary) waitAck(log string, seq int) error {
	wait := syncTimeout
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		p.mu.Lock()
		acked := false
		for _, pr := range p.peers {
			if pr.acked[log] >= seq {
				acked = true
				break
			}
		}
		ch := p.ackWait
		p.mu.Unlock()
		if acked {
			return nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return &SyncError{Log: log, Seq: seq, Wait: wait}
		case <-p.done:
			return fmt.Errorf("replica: shipper closed before %s@%d was acknowledged", log, seq)
		}
	}
}

// wakePeers nudges every ship loop (non-blocking).
func (p *Primary) wakePeers() {
	p.mu.Lock()
	peers := p.peers
	p.mu.Unlock()
	for _, pr := range peers {
		select {
		case pr.wake <- struct{}{}:
		default:
		}
	}
}

// Start launches one ship loop per peer and the digest loop.
func (p *Primary) Start() {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	for i := range p.peers {
		p.wg.Add(1)
		go p.shipLoop(p.peers[i])
	}
	if p.opts.DigestInterval >= 0 {
		p.wg.Add(1)
		go p.digestLoop()
	}
}

// Close stops the loops and closes the transports.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	p.wg.Wait()
	for _, pr := range p.peers {
		pr.t.Close()
	}
}

// digestLoop periodically recomputes state digests for every log that has
// a digest source, then wakes the shippers to piggyback them.
func (p *Primary) digestLoop() {
	defer p.wg.Done()
	ival := p.opts.DigestInterval
	if ival == 0 {
		ival = 2 * time.Second
	}
	t := time.NewTicker(ival)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), ival)
			p.RefreshDigests(ctx)
			cancel()
		}
	}
}

// RefreshDigests recomputes every registered log's digest now. Exposed so
// tests (and the promote flow) can force a divergence check
// deterministically instead of waiting out the ticker.
func (p *Primary) RefreshDigests(ctx context.Context) {
	p.mu.Lock()
	type item struct {
		log string
		fn  DigestFunc
	}
	var items []item
	for name, pl := range p.logs {
		if pl.digest != nil {
			items = append(items, item{name, pl.digest})
		}
	}
	p.mu.Unlock()
	sort.Slice(items, func(i, j int) bool { return items[i].log < items[j].log })
	for _, it := range items {
		dig, err := it.fn(ctx)
		if err != nil {
			p.logf("replica: digest of %s: %v", it.log, err)
			continue
		}
		dig.Log = it.log
		p.mu.Lock()
		if pl := p.logs[it.log]; pl != nil {
			pl.dig = dig
		}
		p.mu.Unlock()
	}
	p.wakePeers()
}

// shipLoop drives one peer: build a batch of unshipped frames (plus any
// fresh digests), ship it, admit the acks; on failure retry with bounded
// exponential backoff. Fencing rejections demote the whole node.
func (p *Primary) shipLoop(pr *peer) {
	defer p.wg.Done()
	backoff := retryBase
	for {
		req, err := p.buildRequest(pr)
		if err != nil {
			p.logf("replica: building shipment for %s: %v", pr.t.Addr(), err)
			p.setPeerErr(pr, err)
		}
		if req == nil {
			select {
			case <-p.done:
				return
			case <-pr.wake:
				continue
			case <-time.After(backoff):
				// Re-probe even unwoken: a Register may have raced a wake.
				continue
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
		resp, err := pr.t.Ship(ctx, req)
		cancel()
		if err != nil {
			var fe *FencedError
			if errors.As(err, &fe) {
				// The standby outranks us: persist the observation (which
				// demotes this node) and stop pushing — a fenced primary
				// has nothing legitimate to ship.
				if oerr := p.opts.Node.Observe(fe.Seen, "fenced by "+pr.t.Addr()); oerr != nil {
					p.logf("replica: recording fencing epoch %d: %v", fe.Seen, oerr)
				}
				p.logf("replica: demoted: %s holds epoch %d", pr.t.Addr(), fe.Seen)
			}
			p.setPeerErr(pr, err)
			select {
			case <-p.done:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, retryCap)
			continue
		}
		backoff = retryBase
		p.admit(pr, req, resp)
		select {
		case <-p.done:
			return
		default:
		}
	}
}

func (p *Primary) setPeerErr(pr *peer, err error) {
	p.mu.Lock()
	pr.lastErr = err.Error()
	pr.fails++
	p.mu.Unlock()
}

// buildRequest assembles the next shipment for pr: frames every log whose
// tail is past the peer's ack, in log-name order, bounded by batchMax,
// plus any digest not yet sent at its sequence. Returns nil when the peer
// is fully caught up.
func (p *Primary) buildRequest(pr *peer) (*ShipRequest, error) {
	// A fenced primary has nothing legitimate to ship: go quiet rather
	// than spam the new primary with stale-epoch requests.
	if p.opts.Node.FenceCheck() != nil {
		return nil, nil
	}
	p.mu.Lock()
	type want struct {
		log   string
		path  string
		from  int // first sequence to ship
		tail  int
		cur   journal.Cursor
		dig   *LogDigest
		sentD int
	}
	var wants []want
	for name, pl := range p.logs {
		w := want{log: name, path: pl.path, from: pr.acked[name] + 1, tail: pl.tail, cur: pr.cursors[name], sentD: pr.sentDigest[name]}
		if pl.dig != nil && pl.dig.Seq > w.sentD {
			w.dig = pl.dig
		}
		if w.from <= w.tail || w.dig != nil {
			wants = append(wants, w)
		}
	}
	epoch := p.opts.Node.Granted()
	id := p.opts.Node.ID()
	p.mu.Unlock()
	if len(wants) == 0 {
		return nil, nil
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].log < wants[j].log })

	req := &ShipRequest{Primary: id, Epoch: epoch}
	budget := batchMax
	var firstErr error
	for _, w := range wants {
		if w.dig != nil {
			req.Digests = append(req.Digests, *w.dig)
		}
		if w.from > w.tail || budget <= 0 {
			continue
		}
		cur := w.cur
		if cur.Next > w.from {
			// A failed shipment left the cursor past the ack point: rewind
			// and re-skip from the start (committed bytes are immutable, so
			// this is safe, just slower).
			cur = journal.Cursor{}
		}
		frames, nc, err := readFrames(p.fs, w.path, w.log, cur, w.from, w.tail, budget)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("reading %s: %w", w.log, err)
			}
			continue
		}
		budget -= len(frames)
		req.Frames = append(req.Frames, frames...)
		p.mu.Lock()
		pr.cursors[w.log] = nc
		p.mu.Unlock()
	}
	if len(req.Frames) == 0 && len(req.Digests) == 0 {
		return nil, firstErr
	}
	return req, firstErr
}

// readFrames iterates the journal file from cur, collecting frames with
// from <= seq <= maxSeq, at most max of them. It returns the frames and the
// advanced cursor.
func readFrames(fs faultfs.FS, path, log string, cur journal.Cursor, from, maxSeq, max int) ([]Frame, journal.Cursor, error) {
	it, err := journal.RecordsIn(context.Background(), fs, path, cur)
	if err != nil {
		return nil, cur, err
	}
	defer it.Close()
	var frames []Frame
	for len(frames) < max && it.LastSeq() < maxSeq {
		if !it.Next() {
			// The tail promised records the file does not hold from here: a
			// torn tail pending repair, or a cursor gone stale after a
			// rollback. Rewind so the next build rescans.
			return frames, journal.Cursor{}, it.Err()
		}
		if seq := it.LastSeq(); seq >= from {
			frames = append(frames, Frame{Log: log, Seq: seq, Line: bytes.Clone(it.Line())})
		}
	}
	return frames, it.Cursor(), nil
}

// admit merges a successful response: per-log acks advance, divergence
// reports are recorded, and every synchronous waiter is re-checked.
func (p *Primary) admit(pr *peer, req *ShipRequest, resp *ShipResponse) {
	p.mu.Lock()
	for log, a := range resp.Acked {
		if a > pr.acked[log] {
			pr.shipped += int64(a - pr.acked[log])
			pr.acked[log] = a
		}
	}
	for _, d := range req.Digests {
		// Only a delivered digest counts as sent; a failed shipment's
		// digests are rebuilt and retried.
		if d.Seq > pr.sentDigest[d.Log] {
			pr.sentDigest[d.Log] = d.Seq
		}
	}
	for _, lg := range resp.Diverged {
		if !p.diverged[lg] {
			p.logf("replica: standby %s reports %s DIVERGED", pr.t.Addr(), lg)
		}
		p.diverged[lg] = true
	}
	pr.lastErr = ""
	close(p.ackWait)
	p.ackWait = make(chan struct{})
	p.mu.Unlock()
	if resp.Epoch > p.opts.Node.Granted() {
		if err := p.opts.Node.Observe(resp.Epoch, "ship response from "+pr.t.Addr()); err != nil {
			p.logf("replica: recording epoch %d: %v", resp.Epoch, err)
		}
	}
}

// Lag is the worst per-peer total of unacknowledged records across all
// logs — 0 when every peer is caught up.
func (p *Primary) Lag() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	worst := 0
	for _, pr := range p.peers {
		lag := 0
		for name, pl := range p.logs {
			if d := pl.tail - pr.acked[name]; d > 0 {
				lag += d
			}
		}
		if lag > worst {
			worst = lag
		}
	}
	return worst
}

// ReadyErr reports why the primary should fail a readiness probe: fenced,
// or lagging past LagMax. Nil when healthy.
func (p *Primary) ReadyErr() error {
	if err := p.opts.Node.FenceCheck(); err != nil {
		return err
	}
	if p.opts.LagMax > 0 {
		if lag := p.Lag(); lag > p.opts.LagMax {
			return fmt.Errorf("replica: %d unacknowledged records exceed the %d lag bound", lag, p.opts.LagMax)
		}
	}
	return nil
}

// PeerStatus is one standby's view in PrimaryStatus.
type PeerStatus struct {
	Addr      string         `json:"addr"`
	Acked     map[string]int `json:"acked,omitempty"`
	Lag       int            `json:"lag"`
	Shipped   int64          `json:"shipped"`
	Failures  int            `json:"failures,omitempty"`
	LastError string         `json:"lastError,omitempty"`
}

// PrimaryStatus is the primary half of /replstatus.
type PrimaryStatus struct {
	Sync     bool           `json:"sync"`
	LagMax   int            `json:"lagMax,omitempty"`
	Lag      int            `json:"lag"`
	Logs     map[string]int `json:"logs"`
	Peers    []PeerStatus   `json:"peers"`
	Diverged []string       `json:"diverged,omitempty"`
}

// Status snapshots the shipper for observability.
func (p *Primary) Status() PrimaryStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PrimaryStatus{Sync: p.opts.Sync, LagMax: p.opts.LagMax, Logs: make(map[string]int, len(p.logs))}
	for name, pl := range p.logs {
		st.Logs[name] = pl.tail
	}
	for _, pr := range p.peers {
		ps := PeerStatus{Addr: pr.t.Addr(), Acked: make(map[string]int, len(pr.acked)),
			Shipped: pr.shipped, Failures: pr.fails, LastError: pr.lastErr}
		for name, a := range pr.acked {
			ps.Acked[name] = a
		}
		for name, pl := range p.logs {
			if d := pl.tail - pr.acked[name]; d > 0 {
				ps.Lag += d
			}
		}
		if ps.Lag > st.Lag {
			st.Lag = ps.Lag
		}
		st.Peers = append(st.Peers, ps)
	}
	for lg := range p.diverged {
		st.Diverged = append(st.Diverged, lg)
	}
	sort.Strings(st.Diverged)
	return st
}
