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
	// it is presumed dead and the task goes to the next round (default
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
	// timing only — every dispatch of a task computes the same bits.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter, when positive, dispatches a task a second time, to
	// another worker, if the first has not replied within it: the first
	// valid reply wins and the other call is cancelled. Zero disables
	// hedging.
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
	inflight int
}

func (w *worker) setHealthy(ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = ok
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

func (w *worker) addInflight(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflight += n
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
	Retries        uint64        `json:"retries"`
}

// Supervisor owns a set of workers and executes sharded scoring work over
// them under the package's robustness contract. Create with NewSupervisor,
// start background heartbeats with Start, release with Close.
type Supervisor struct {
	opts    Options
	workers []*worker
	rr      atomic.Uint64 // round-robin dispatch cursor
	epoch   atomic.Uint64 // dispatch counter: each Task's Epoch, which the worker echoes

	localFallbacks atomic.Uint64
	hedges         atomic.Uint64
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
		w := &worker{t: t, healthy: true}
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

// pickWorker round-robins over healthy workers other than exclude (a hedge
// never goes back to the straggler it hedges). When no such worker passes
// liveness the round-robin continues over unhealthy ones: health is
// advisory routing, not a correctness gate — a mis-classified worker costs
// one bounded attempt, while refusing to try would turn one dropped packet
// on a single-worker fleet into a permanent local fallback. Returns nil
// only when there is no worker but exclude.
func (s *Supervisor) pickWorker(exclude *worker) *worker {
	n := len(s.workers)
	start := int(s.rr.Add(1))
	var unhealthy *worker
	for i := 0; i < n; i++ {
		w := s.workers[(start+i)%n]
		switch {
		case w == exclude:
		case w.isHealthy():
			return w
		case unhealthy == nil:
			unhealthy = w
		}
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

// runTask drives one shard to completion: up to MaxAttempts rounds with
// backoff between them, then in-process scoring (or ErrWorkerLost, under
// RequireWorkers). A round that ends in anything but ErrWorkerLost — the
// values, a scoring error, the run's cancellation — ends the task.
func (s *Supervisor) runTask(ctx context.Context, seq int, spec MeasureSpec, rows []TaskRow) ([]float64, error) {
	var lastAddr string
	for attempt := 0; attempt < s.opts.MaxAttempts; attempt++ {
		w := s.pickWorker(nil) // never nil: Execute ran an empty fleet in-process
		lastAddr = w.t.Addr()
		if attempt > 0 {
			s.retries.Add(1)
			if err := s.backoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		values, err := s.round(ctx, w, seq, spec, rows)
		if !errors.Is(err, ErrWorkerLost) {
			return values, err
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

// round dispatches the shard to w and, if HedgeAfter elapses first, to a
// second worker. The first call that does not end in ErrWorkerLost settles
// the round; ErrWorkerLost is returned only when every call it started
// did. The round owns its calls: settling cancels the one still running
// and waits for it to return, so the loser of a hedge gives back its
// charge and in-flight slot before the round does.
func (s *Supervisor) round(ctx context.Context, w *worker, seq int, spec MeasureSpec, rows []TaskRow) ([]float64, error) {
	ctx, cancel := context.WithCancel(ctx)
	type result struct {
		values []float64
		err    error
	}
	results := make(chan result, 2) // one per call: the dispatch and its hedge
	running := 0
	start := func(w *worker) {
		running++
		go func() {
			values, err := s.call(ctx, w, seq, spec, rows)
			results <- result{values, err}
		}()
	}
	defer func() {
		cancel()
		for ; running > 0; running-- {
			<-results
		}
	}()

	start(w)
	var hedge <-chan time.Time
	if s.opts.HedgeAfter > 0 {
		t := time.NewTimer(s.opts.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var lost error
	for running > 0 {
		select {
		case <-hedge:
			hedge = nil
			if w2 := s.pickWorker(w); w2 != nil {
				s.hedges.Add(1)
				s.logf("dist: hedging task %d on %s", seq, w2.t.Addr())
				start(w2)
			}
		case r := <-results:
			running--
			if !errors.Is(r.err, ErrWorkerLost) {
				return r.values, r.err
			}
			lost = r.err
		}
	}
	return nil, lost
}

// call is one dispatch of the shard to w: the next epoch, the worker's
// governor charge, one Transport.Call bounded by LeaseTTL. The reply must
// answer this dispatch — echo its Seq and Epoch and, unless scoring failed,
// carry one value per row; a reply that does not, a transport failure or a
// refused charge is ErrWorkerLost and marks w unhealthy. A scoring error
// comes back with the worker's text: it belongs to the data, so it is
// final. A call that ends because ctx was cancelled — its round settled or
// the run ended — returns ctx's error and says nothing about w.
func (s *Supervisor) call(ctx context.Context, w *worker, seq int, spec MeasureSpec, rows []TaskRow) ([]float64, error) {
	epoch := s.epoch.Add(1)
	lost := func(cause error) error {
		w.setHealthy(false)
		s.logf("dist: task %d epoch %d on %s failed: %v", seq, epoch, w.t.Addr(), cause)
		return fmt.Errorf("%w: %s: %v", ErrWorkerLost, w.t.Addr(), cause)
	}
	charge := int64(len(rows)) * taskRowBytes
	if err := w.gov.ReserveBytes(charge); err != nil {
		// A saturated scope is a refused connection: the next round picks
		// someone else.
		return nil, lost(err)
	}
	defer w.gov.ReleaseBytes(charge)
	w.addInflight(1)
	defer w.addInflight(-1)

	callCtx, cancel := context.WithTimeout(ctx, s.opts.LeaseTTL)
	r, err := w.t.Call(callCtx, Task{Run: s.opts.Run, Seq: seq, Epoch: epoch, Measure: spec, Rows: rows})
	cancel()
	switch {
	case err != nil && ctx.Err() != nil:
		return nil, ctx.Err()
	case err != nil:
		return nil, lost(err)
	case r.Seq != seq || r.Epoch != epoch:
		return nil, lost(fmt.Errorf("reply answers task %d epoch %d", r.Seq, r.Epoch))
	case r.Err != "":
		w.setHealthy(true)
		return nil, errors.New(r.Err)
	case len(r.Values) != len(rows):
		return nil, lost(fmt.Errorf("%d values for %d rows", len(r.Values), len(rows)))
	}
	w.setHealthy(true)
	return r.Values, nil
}

// backoff sleeps the exponential, jittered retry delay for the given
// attempt (1-based round that failed), honouring cancellation.
func (s *Supervisor) backoff(ctx context.Context, attempt int) error {
	d := s.opts.RetryBase << (attempt - 1)
	if d > s.opts.RetryCap || d <= 0 {
		d = s.opts.RetryCap
	}
	// ±50% jitter de-synchronizes retry storms. Timing only: a retried
	// shard computes the same bits wherever it lands.
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
