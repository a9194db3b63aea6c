package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vadasa/internal/govern"
	"vadasa/internal/pool"
)

// Options tunes a Supervisor. Zero values select the documented defaults.
type Options struct {
	// Run names this supervisor incarnation in tasks and logs.
	Run string
	// ShardSize is the number of rows per task (default 1024).
	ShardSize int
	// LeaseTTL bounds one dispatch: a worker that has not replied within
	// it is presumed dead, its epoch revoked, the task retried (default
	// 10s).
	LeaseTTL time.Duration
	// HeartbeatInterval spaces liveness probes (default 2s); a worker
	// failing a probe is routed around until a probe succeeds again.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout bounds one probe (default 1s).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds dispatch rounds per task, the first included
	// (default 3). Exhaustion degrades to local execution — or fails with
	// ErrWorkerLost under RequireWorkers.
	MaxAttempts int
	// RetryBase and RetryCap shape the exponential backoff between rounds
	// (defaults 50ms and 2s); each delay is jittered ±50%. Jitter touches
	// timing only — results are fenced, never raced.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter, when positive, re-dispatches a task to a second worker
	// if the first has not replied within it — both epochs stay valid and
	// the first admitted reply wins. Zero disables hedging.
	HedgeAfter time.Duration
	// RequireWorkers forbids the in-process fallback: with no healthy
	// workers, Execute fails with ErrDegraded instead of degrading
	// silently. Operators choose it when worker isolation is the point
	// (memory budgets, blast radius), accepting unavailability over
	// in-process execution.
	RequireWorkers bool
	// Governor, when non-nil, is the parent scope: each worker gets a
	// child scope charged with its in-flight task bytes, so one slow
	// worker accumulating hedged work shows up in /readyz before it
	// becomes a memory problem.
	Governor *govern.Governor
	// Logf receives supervision diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Run == "" {
		o.Run = "dist"
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 1024
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 50 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 2 * time.Second
	}
}

// taskRowBytes is the per-row governor charge for an in-flight task: the
// wire row (~40 bytes of JSON) plus its reply value.
const taskRowBytes = 48

// worker is the supervisor's view of one Transport.
type worker struct {
	t   Transport
	gov *govern.Governor

	mu       sync.Mutex
	healthy  bool
	lastSeen time.Time
	inflight int
}

func (w *worker) setHealthy(ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = ok
	if ok {
		w.lastSeen = time.Now()
	}
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

// WorkerStats is one worker's observable state.
type WorkerStats struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Inflight int    `json:"inflight"`
}

// Stats is a supervisor snapshot for probes and logs.
type Stats struct {
	Workers        []WorkerStats `json:"workers"`
	Healthy        int           `json:"healthy"`
	Epoch          uint64        `json:"epoch"`
	LocalFallbacks uint64        `json:"localFallbacks"`
	Hedges         uint64        `json:"hedges"`
	StaleReplies   uint64        `json:"staleReplies"`
	Retries        uint64        `json:"retries"`
}

// taskState is the lease fence of one task: the set of currently valid
// epochs and whether a reply has been admitted. All access goes through
// the supervisor's grant/revoke/admit methods.
type taskState struct {
	seq int

	mu    sync.Mutex
	valid map[uint64]bool
	done  bool
}

// Supervisor owns a set of workers and executes sharded scoring work over
// them under the package's robustness contract. Create with NewSupervisor,
// start background heartbeats with Start, release with Close.
type Supervisor struct {
	opts    Options
	workers []*worker
	rr      atomic.Uint64 // round-robin dispatch cursor
	epoch   atomic.Uint64 // monotonic lease epoch counter

	localFallbacks atomic.Uint64
	hedges         atomic.Uint64
	staleReplies   atomic.Uint64
	retries        atomic.Uint64

	stopOnce sync.Once
	stopc    chan struct{}
	hbDone   chan struct{}
}

// NewSupervisor builds a supervisor over the given worker transports. The
// list may be empty: the supervisor is then permanently degraded and every
// Execute runs in-process (or fails, under RequireWorkers). Workers start
// out healthy and are re-classified by calls and heartbeats.
func NewSupervisor(transports []Transport, opts Options) *Supervisor {
	opts.fill()
	s := &Supervisor{
		opts:  opts,
		stopc: make(chan struct{}),
	}
	for _, t := range transports {
		w := &worker{t: t, healthy: true, lastSeen: time.Now()}
		if opts.Governor != nil {
			w.gov = opts.Governor.Child("worker:"+t.Addr(), govern.Limits{})
		}
		s.workers = append(s.workers, w)
	}
	return s
}

// Start launches the heartbeat loop. It returns immediately; Close stops
// the loop. Calling Start is optional — without it, worker health is still
// maintained by dispatch outcomes — but heartbeats recover a worker's
// healthy flag without burning a task attempt on it.
func (s *Supervisor) Start() {
	if len(s.workers) == 0 {
		return
	}
	s.hbDone = make(chan struct{})
	go s.heartbeatLoop()
}

func (s *Supervisor) heartbeatLoop() {
	defer close(s.hbDone)
	ticker := time.NewTicker(s.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-ticker.C:
			s.probeAll()
		}
	}
}

func (s *Supervisor) probeAll() {
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), s.opts.HeartbeatTimeout)
			defer cancel()
			err := w.t.Ping(ctx)
			was := w.isHealthy()
			w.setHealthy(err == nil)
			if err != nil && was {
				s.logf("dist: worker %s failed heartbeat: %v", w.t.Addr(), err)
			} else if err == nil && !was {
				s.logf("dist: worker %s recovered", w.t.Addr())
			}
		}(w)
	}
	wg.Wait()
}

// Close stops heartbeats and closes every transport and worker scope.
func (s *Supervisor) Close() {
	s.stopOnce.Do(func() { close(s.stopc) })
	if s.hbDone != nil {
		<-s.hbDone
	}
	for _, w := range s.workers {
		w.t.Close()
		w.gov.Close()
	}
}

// Healthy reports how many workers currently pass liveness.
func (s *Supervisor) Healthy() int {
	n := 0
	for _, w := range s.workers {
		if w.isHealthy() {
			n++
		}
	}
	return n
}

// Degraded reports whether Execute would run in-process right now: no
// workers configured, or none healthy.
func (s *Supervisor) Degraded() bool { return s.Healthy() == 0 }

// RequiresWorkers reports the RequireWorkers configuration.
func (s *Supervisor) RequiresWorkers() bool { return s.opts.RequireWorkers }

// Snapshot returns current supervision counters and per-worker health.
func (s *Supervisor) Snapshot() Stats {
	st := Stats{
		Epoch:          s.epoch.Load(),
		LocalFallbacks: s.localFallbacks.Load(),
		Hedges:         s.hedges.Load(),
		StaleReplies:   s.staleReplies.Load(),
		Retries:        s.retries.Load(),
	}
	for _, w := range s.workers {
		w.mu.Lock()
		ws := WorkerStats{Addr: w.t.Addr(), Healthy: w.healthy, Inflight: w.inflight}
		w.mu.Unlock()
		st.Workers = append(st.Workers, ws)
		if ws.Healthy {
			st.Healthy++
		}
	}
	return st
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// grant issues a fresh epoch for the task and records it as valid.
func (s *Supervisor) grant(task *taskState) uint64 {
	epoch := s.epoch.Add(1)
	task.mu.Lock()
	task.valid[epoch] = true
	task.mu.Unlock()
	return epoch
}

// revoke invalidates one epoch (timeout, transport failure, corrupt
// reply); a reply carrying it can never be admitted afterwards.
func (s *Supervisor) revoke(task *taskState, epoch uint64) {
	task.mu.Lock()
	delete(task.valid, epoch)
	task.mu.Unlock()
}

// admit is the epoch fence — the single point where a worker reply can
// become a task result. It accepts a reply iff it names this task, its
// epoch is still valid, no reply was admitted before, and (for successful
// replies) the value vector has exactly one entry per row. On acceptance
// every lease of the task dies, so a hedged sibling or duplicate delivery
// arriving later is rejected here, not merged. corrupt reports a reply
// that passed the fence but failed structural validation — the caller
// treats the worker as lost and retries.
func (s *Supervisor) admit(task *taskState, r Reply, n int, workerAddr string) (accepted, corrupt bool) {
	task.mu.Lock()
	if task.done || r.Seq != task.seq || !task.valid[r.Epoch] {
		task.mu.Unlock()
		s.staleReplies.Add(1)
		s.logf("dist: rejecting reply task=%d epoch=%d from %s: %v", r.Seq, r.Epoch, workerAddr, ErrLeaseExpired)
		return false, false
	}
	//distfence:ok admit IS the fence; this is the truncation check behind it
	if r.Err == "" && len(r.Values) != n {
		delete(task.valid, r.Epoch)
		task.mu.Unlock()
		s.logf("dist: corrupt reply task=%d epoch=%d from %s: %d values for %d rows",
			r.Seq, r.Epoch, workerAddr, len(r.Values), n) //distfence:ok fence's own rejection diagnostic
		return false, true
	}
	task.done = true
	task.valid = map[uint64]bool{}
	task.mu.Unlock()
	return true, false
}

// revokeAll invalidates every outstanding epoch of the task.
func (s *Supervisor) revokeAll(task *taskState) {
	task.mu.Lock()
	task.valid = map[uint64]bool{}
	task.mu.Unlock()
}

// pickWorker round-robins over healthy workers; exclude skips one (hedge
// dispatch prefers a different worker). When no worker passes liveness the
// round-robin continues over unhealthy ones: health is advisory routing,
// not a correctness gate — a mis-classified worker costs one bounded
// attempt, while refusing to try would turn one dropped packet on a
// single-worker fleet into a permanent local fallback. Returns nil only
// for an empty fleet.
func (s *Supervisor) pickWorker(exclude *worker) *worker {
	n := len(s.workers)
	if n == 0 {
		return nil
	}
	start := int(s.rr.Add(1))
	var excludedHealthy, unhealthy *worker
	for i := 0; i < n; i++ {
		w := s.workers[(start+i)%n]
		switch {
		case !w.isHealthy():
			if unhealthy == nil {
				unhealthy = w
			}
		case w == exclude:
			excludedHealthy = w
		default:
			return w
		}
	}
	if excludedHealthy != nil {
		return excludedHealthy
	}
	return unhealthy
}

// Execute shards rows, runs every shard under supervision, and merges the
// results into a vector aligned with rows. With no healthy workers it
// degrades to in-process scoring (unless RequireWorkers). The merged
// output is bit-identical to MeasureSpec.Score(rows) run locally — see the
// package comment for the argument.
func (s *Supervisor) Execute(ctx context.Context, spec MeasureSpec, rows []TaskRow) ([]float64, error) {
	if len(rows) == 0 {
		return []float64{}, nil
	}
	if s.Degraded() {
		if s.opts.RequireWorkers {
			return nil, fmt.Errorf("%w: %d workers configured, 0 healthy", ErrDegraded, len(s.workers))
		}
		s.localFallbacks.Add(1)
		s.logf("dist: no healthy workers, scoring %d rows in-process", len(rows))
		return spec.Score(rows)
	}

	type shard struct{ lo, hi int }
	var shards []shard
	for lo := 0; lo < len(rows); lo += s.opts.ShardSize {
		hi := lo + s.opts.ShardSize
		if hi > len(rows) {
			hi = len(rows)
		}
		shards = append(shards, shard{lo, hi})
	}
	out := make([]float64, len(rows))
	// Two tasks outstanding per worker keep each one busy across a reply.
	err := pool.ForEach(ctx, max(2, 2*len(s.workers)), len(shards), func(i int) error {
		vals, err := s.runTask(ctx, i, spec, rows[shards[i].lo:shards[i].hi])
		if err != nil {
			return err
		}
		copy(out[shards[i].lo:shards[i].hi], vals)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dispatchResult carries one dispatch outcome back to runTask's loop.
type dispatchResult struct {
	reply Reply
	err   error
	epoch uint64
	w     *worker
}

// runTask drives one shard to completion: dispatch under a fresh lease,
// wait fenced, hedge stragglers, retry failures with backoff, and fall
// back to in-process scoring when workers are exhausted.
func (s *Supervisor) runTask(ctx context.Context, seq int, spec MeasureSpec, rows []TaskRow) ([]float64, error) {
	task := &taskState{seq: seq, valid: map[uint64]bool{}}
	// Buffered past the worst case (one dispatch + one hedge per attempt)
	// so late repliers never block on a loop that has moved on.
	replyc := make(chan dispatchResult, 2*s.opts.MaxAttempts+2)

	dispatch := func(w *worker) uint64 {
		epoch := s.grant(task)
		t := Task{Run: s.opts.Run, Seq: seq, Epoch: epoch, Measure: spec, Rows: rows}
		w.mu.Lock()
		w.inflight++
		w.mu.Unlock()
		go func() {
			charge := int64(len(rows)) * taskRowBytes
			//governcharge:ok released on every path below once the call settles
			if err := w.gov.Reserve(govern.Memory, charge); err != nil {
				// The worker's scope is saturated: treat like a refused
				// connection so the retry path picks someone else.
				w.mu.Lock()
				w.inflight--
				w.mu.Unlock()
				replyc <- dispatchResult{err: fmt.Errorf("%w: %s: %v", ErrWorkerLost, w.t.Addr(), err), epoch: epoch, w: w}
				return
			}
			callCtx, cancel := context.WithTimeout(ctx, s.opts.LeaseTTL)
			r, err := w.t.Call(callCtx, t)
			cancel()
			w.gov.Release(govern.Memory, charge)
			w.mu.Lock()
			w.inflight--
			w.mu.Unlock()
			replyc <- dispatchResult{reply: r, err: err, epoch: epoch, w: w}
		}()
		return epoch
	}

	var lastAddr string
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		w := s.pickWorker(nil)
		if w == nil {
			break // degraded mid-run: fall through to local
		}
		lastAddr = w.t.Addr()
		if attempt > 0 {
			s.retries.Add(1)
			if err := s.backoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		roundEpochs := map[uint64]bool{dispatch(w): true}
		outstanding := 1

		var hedgec <-chan time.Time
		var hedgeTimer *time.Timer
		if s.opts.HedgeAfter > 0 {
			hedgeTimer = time.NewTimer(s.opts.HedgeAfter)
			hedgec = hedgeTimer.C
		}
		deadline := time.NewTimer(s.opts.LeaseTTL + s.opts.LeaseTTL/4)

	wait:
		for {
			select {
			case <-ctx.Done():
				stopTimers(hedgeTimer, deadline)
				s.revokeAll(task)
				return nil, ctx.Err()

			case res := <-replyc:
				if !roundEpochs[res.epoch] {
					// Late reply from an earlier round. Its epoch was
					// revoked when that round ended, so the fence rejects
					// it — run it through admit anyway for uniform
					// accounting, and keep waiting on this round's leases.
					if res.err == nil {
						s.admit(task, res.reply, len(rows), res.w.t.Addr())
					}
					continue
				}
				if res.err != nil {
					outstanding--
					res.w.setHealthy(false)
					s.revoke(task, res.epoch)
					s.logf("dist: task %d epoch %d on %s failed: %v", seq, res.epoch, res.w.t.Addr(), res.err)
					if outstanding > 0 {
						continue // a hedge is still in flight
					}
					stopTimers(hedgeTimer, deadline)
					break wait // next attempt
				}
				res.w.setHealthy(true)
				accepted, corrupt := s.admit(task, res.reply, len(rows), res.w.t.Addr())
				if accepted {
					stopTimers(hedgeTimer, deadline)
					if res.reply.Err != "" {
						// Deterministic scoring failure: same outcome the
						// local path would produce — fail, don't retry.
						return nil, errors.New(res.reply.Err)
					}
					return res.reply.Values, nil
				}
				outstanding--
				if corrupt {
					res.w.setHealthy(false)
					if outstanding > 0 {
						continue
					}
					stopTimers(hedgeTimer, deadline)
					break wait
				}
				// Stale (fence-rejected): only relevant if nothing else is
				// in flight anymore — then this round is over.
				if outstanding <= 0 {
					stopTimers(hedgeTimer, deadline)
					break wait
				}

			case <-hedgec:
				hedgec = nil
				if w2 := s.pickWorker(w); w2 != nil {
					s.hedges.Add(1)
					s.logf("dist: hedging task %d on %s", seq, w2.t.Addr())
					roundEpochs[dispatch(w2)] = true
					outstanding++
				}

			case <-deadline.C:
				// Lease TTL blown with the call's own timeout somehow not
				// surfacing (a stuck transport): revoke everything and
				// re-dispatch. Late replies die at the fence.
				stopTimers(hedgeTimer, nil)
				s.revokeAll(task)
				w.setHealthy(false)
				s.logf("dist: task %d lease expired on %s", seq, w.t.Addr())
				break wait
			}
		}
	}

	if s.opts.RequireWorkers {
		return nil, fmt.Errorf("%w: task %d exhausted %d attempts (last worker %s)",
			ErrWorkerLost, seq, s.opts.MaxAttempts, lastAddr)
	}
	s.localFallbacks.Add(1)
	s.logf("dist: task %d falling back to in-process scoring (%d rows)", seq, len(rows))
	return spec.Score(rows)
}

// backoff sleeps the exponential, jittered retry delay for the given
// attempt (1-based round that failed), honouring cancellation.
func (s *Supervisor) backoff(ctx context.Context, attempt int) error {
	d := s.opts.RetryBase << (attempt - 1)
	if d > s.opts.RetryCap || d <= 0 {
		d = s.opts.RetryCap
	}
	// ±50% jitter de-synchronizes retry storms. Timing only: results are
	// fenced, so scheduling noise cannot reach the output bits.
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func stopTimers(timers ...*time.Timer) {
	for _, t := range timers {
		if t != nil {
			t.Stop()
		}
	}
}
