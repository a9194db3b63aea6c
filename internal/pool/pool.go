// Package pool provides the bounded fork-join worker pool behind the
// parallel stages of the incremental risk-assessment layer: group-index
// construction, dirty-group maintenance and per-group risk scoring fan
// independent index ranges out across cores through RunWorkers, and the
// shard supervisor, SUDA and the reasoner's join queue items through ForEach.
//
// Determinism is load-bearing for the anonymization cycle (journal replay
// reproduces a run bit-for-bit), so the pool's contract is designed for it:
// the input range is split into contiguous chunks whose boundaries depend
// only on the range length and the worker count, every chunk writes to
// caller-provided disjoint state, and no pool-level state is shared between
// chunks. A caller whose chunk function is a pure per-index computation gets
// results independent of the worker count. With one worker the pool spawns
// no goroutine and does the work in the calling one, in index order.
//
// The pool knows no governor: it reserves nothing. Callers charge their own
// buffers against the memory budget of the context's governor.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunkTarget is the fixed ChunkBounds chunk size: small enough to balance
// load across workers, large enough that per-chunk bookkeeping never shows
// up in profiles.
const chunkTarget = 2048

// ChunkBounds splits [0, n) into contiguous [lo, hi) ranges of a fixed
// target size. The boundaries depend only on n — not on GOMAXPROCS — so callers that accumulate per-chunk results and concatenate
// them in chunk order get output independent of the worker count.
func ChunkBounds(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	out := make([][2]int, 0, (n+chunkTarget-1)/chunkTarget)
	for lo := 0; lo < n; lo += chunkTarget {
		hi := lo + chunkTarget
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// RunWorkers partitions [0, n) into contiguous chunks and executes fn on
// each, using up to workers goroutines (the caller's included; workers <= 0
// means GOMAXPROCS). fn must write only to state disjoint per index range.
// The first error by chunk order is returned, so error identity does not
// depend on goroutine scheduling; a pre-cancelled context returns its error
// before any chunk runs.
func RunWorkers(ctx context.Context, workers, n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	errs[0] = fn(0, chunk)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach executes fn(i) for every i in [0, n) on up to workers goroutines
// (the caller's included; workers <= 0 means GOMAXPROCS), pulling items off
// a shared queue instead of pre-splitting ranges. It exists for workloads
// RunWorkers' contiguous chunking serves badly: items that block on I/O for
// wildly different times — the distributed shard supervisor dispatching
// lease-fenced tasks to remote workers is the motivating caller. fn must
// write only to per-index state.
//
// The determinism contract matches RunWorkers': which goroutine executes an
// item carries no information (per-index state, pure fn), and the returned
// error is the lowest-index one, so error identity does not depend on
// scheduling.
// Every item is attempted even after a failure — remote dispatch has no
// useful way to "half cancel", and callers that want early exit cancel ctx:
// once ctx is done the remaining queue items are not dispatched, their
// slots settle to ctx.Err(), and ForEach returns as soon as the in-flight
// fn calls do.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// Poll per item, not per loop entry: a long queue behind a
			// cancelled context settles promptly instead of dispatching
			// every remaining item into fn.
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = fn(i)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
