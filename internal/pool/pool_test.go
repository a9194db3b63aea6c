package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversRangeDisjointly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, n := range []int{0, 1, 5, 100, 4097} {
			seen := make([]int, n)
			err := RunWorkers(context.Background(), workers, n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestRunReturnsLowestChunkError(t *testing.T) {
	boom := func(at int) func(lo, hi int) error {
		return func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if i >= at {
					return fmt.Errorf("bad index %d", i)
				}
			}
			return nil
		}
	}
	for _, workers := range []int{1, 4} {
		err := RunWorkers(context.Background(), workers, 1000, boom(500))
		if err == nil || err.Error() != "bad index 500" {
			t.Fatalf("workers=%d: got %v, want bad index 500", workers, err)
		}
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := RunWorkers(ctx, 0, 10, func(lo, hi int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("chunk ran despite cancelled context")
	}
}

func TestChunkBounds(t *testing.T) {
	for _, n := range []int{0, 1, 2047, 2048, 2049, 10000} {
		chunks := ChunkBounds(n)
		next := 0
		for _, c := range chunks {
			if c[0] != next || c[1] <= c[0] {
				t.Fatalf("n=%d: bad chunk %v at expected lo %d", n, c, next)
			}
			next = c[1]
		}
		if next != n {
			t.Fatalf("n=%d: chunks cover up to %d", n, next)
		}
	}
}

func TestForEach(t *testing.T) {
	out := make([]int, 500)
	if err := ForEach(context.Background(), 4, len(out), func(i int) error {
		out[i] = i * 3
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
	if err := ForEach(context.Background(), 4, 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	// Errors at many indexes: the returned error must be the lowest-index
	// one regardless of scheduling, and every item is still attempted.
	var attempted atomic.Int64
	errAt := func(i int) error { return fmt.Errorf("item %d", i) }
	for trial := 0; trial < 20; trial++ {
		attempted.Store(0)
		err := ForEach(context.Background(), 8, 100, func(i int) error {
			attempted.Add(1)
			if i == 7 || i == 63 || i == 91 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 7" {
			t.Fatalf("trial %d: err = %v, want item 7", trial, err)
		}
		if n := attempted.Load(); n != 100 {
			t.Fatalf("trial %d: attempted %d of 100", trial, n)
		}
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 4, 10, func(int) error {
		t.Fatal("fn called with pre-cancelled context")
		return nil
	})
	if err == nil {
		t.Fatal("want context error")
	}
}

// Cancelling the context mid-run must settle ForEach promptly — remaining
// queue items are not dispatched into fn, their error slots carry the
// context error — and must leak no worker goroutines. This mirrors the
// jobs-layer backoff contract: cancellation is an immediate stop, not a
// drain of the whole queue.
func TestForEachCancelMidRunSettlesPromptly(t *testing.T) {
	defer func(n int) {
		// Workers are joined before ForEach returns; give the runtime a
		// moment to retire them, then require the goroutine count back at
		// its baseline.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > n {
			t.Fatalf("goroutines leaked: %d running, baseline %d", g, n)
		}
	}(runtime.NumGoroutine())

	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started, dispatched atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 4, n, func(i int) error {
			dispatched.Add(1)
			if started.Add(1) <= 4 {
				<-release // first items block until after the cancel
			}
			return nil
		})
	}()
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach did not settle after cancellation")
	}
	// The queue behind the cancellation must have been skipped, not drained
	// through fn: with only 4 in-flight items at cancel time, dispatch
	// counts anywhere near n mean the cancel was ignored.
	if d := dispatched.Load(); d > n/10 {
		t.Fatalf("dispatched %d of %d items after cancellation", d, n)
	}
}

// One worker, which spawns no goroutine, honours the same contract.
func TestForEachCancelSequentialPath(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	err := ForEach(ctx, 1, 1000, func(i int) error {
		calls++
		if calls == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times after cancel, want 3", calls)
	}
}
