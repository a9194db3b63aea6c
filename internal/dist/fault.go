package dist

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// FaultTransport wraps a Transport and injects deterministic transport
// failures, addressed by 1-based Call count — the RPC-layer sibling of
// internal/faultfs. Chaos tests compose the two: a worker SIGKILLed
// mid-task while the journal takes a torn write, with the retry's RPC
// duplicated on top, must still converge to the bit-identical release.
//
// Fault semantics, applied in this order when several target one call:
//
//   - Drop: the request is swallowed — the worker never sees it — and the
//     caller gets ErrWorkerLost, as with a network partition on send.
//   - Delay: the request is held before delivery (a slow link; composes
//     with lease TTLs and hedging).
//   - Dup: the task is delivered to the worker twice and the SECOND reply
//     is returned — exercising worker idempotency (pure re-computation).
//   - Truncate: the task is delivered, but the reply loses the second half
//     of its values — a torn response. The supervisor must detect the
//     length mismatch and treat the worker as lost rather than merging a
//     short vector.
//
// Faults are one-shot per call number; unconfigured calls pass through.
type FaultTransport struct {
	inner Transport

	mu       sync.Mutex
	calls    int
	drop     map[int]bool
	dup      map[int]bool
	truncate map[int]bool
	delay    map[int]time.Duration
}

// NewFaultTransport wraps inner with an initially fault-free injector.
func NewFaultTransport(inner Transport) *FaultTransport {
	return &FaultTransport{
		inner:    inner,
		drop:     make(map[int]bool),
		dup:      make(map[int]bool),
		truncate: make(map[int]bool),
		delay:    make(map[int]time.Duration),
	}
}

// DropCall swallows the n-th Call (1-based): the worker never sees it and
// the caller gets ErrWorkerLost.
func (f *FaultTransport) DropCall(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drop[n] = true
}

// DupCall delivers the n-th Call's task to the worker twice, returning the
// second reply.
func (f *FaultTransport) DupCall(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dup[n] = true
}

// TruncateCall corrupts the n-th Call's reply by dropping the second half
// of its values.
func (f *FaultTransport) TruncateCall(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.truncate[n] = true
}

// DelayCall holds the n-th Call for d before delivering it.
func (f *FaultTransport) DelayCall(n int, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay[n] = d
}

// Calls reports how many Call invocations the transport has seen.
func (f *FaultTransport) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Call implements Transport, applying any faults armed for this call.
func (f *FaultTransport) Call(ctx context.Context, t Task) (Reply, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	drop := f.drop[n]
	dup := f.dup[n]
	trunc := f.truncate[n]
	delay := f.delay[n]
	f.mu.Unlock()

	if drop {
		return Reply{}, fmt.Errorf("%w: %s: injected drop of call %d", ErrWorkerLost, f.Addr(), n)
	}
	if delay > 0 {
		select {
		case <-ctx.Done():
			return Reply{}, fmt.Errorf("%w: %s: %v", ErrWorkerLost, f.Addr(), ctx.Err())
		case <-time.After(delay):
		}
	}
	r, err := f.inner.Call(ctx, t)
	if dup && err == nil {
		// Duplicate delivery: the worker computes the task again; the
		// second reply is what the network hands back. A correct worker is
		// pure, so both replies carry identical bits.
		r, err = f.inner.Call(ctx, t)
	}
	if trunc && err == nil {
		r.Values = r.Values[:len(r.Values)/2]
	}
	return r, err
}

// Ping implements Transport, passing through unfaulted.
func (f *FaultTransport) Ping(ctx context.Context) error { return f.inner.Ping(ctx) }

// Addr implements Transport.
func (f *FaultTransport) Addr() string { return f.inner.Addr() }

// Close implements Transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }
