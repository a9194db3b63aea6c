package govern

import (
	"context"
	"errors"
	"sync"
	"syscall"
	"testing"
)

func TestReserveRelease(t *testing.T) {
	g := New("root", Limits{MaxBytes: 100})
	if err := g.ReserveBytes(60); err != nil {
		t.Fatalf("reserve 60: %v", err)
	}
	if err := g.ReserveBytes(41); err == nil {
		t.Fatal("reserve over budget succeeded")
	}
	g.ReleaseBytes(30)
	if err := g.ReserveBytes(41); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
	if got := g.Used(); got != 71 {
		t.Fatalf("used = %d, want 71", got)
	}
}

func TestErrBudgetExceededFields(t *testing.T) {
	g := New("server", Limits{MaxBytes: 10})
	g.ReserveBytes(8)
	err := g.ReserveBytes(5)
	var ebe *ErrBudgetExceeded
	if !errors.As(err, &ebe) {
		t.Fatalf("error %v is not *ErrBudgetExceeded", err)
	}
	if ebe.Resource != Memory || ebe.Scope != "server" || ebe.Requested != 5 || ebe.Used != 8 || ebe.Budget != 10 {
		t.Fatalf("unexpected fields: %+v", ebe)
	}
}

// A child reservation is charged to every ancestor, an ancestor's
// budget binds the child, and a failed reservation rolls back cleanly.
func TestHierarchy(t *testing.T) {
	root := New("server", Limits{MaxBytes: 100})
	job := root.Child("job", Limits{})
	eval := job.Child("evaluation", Limits{MaxBytes: 200})

	if err := eval.ReserveBytes(50); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if got := root.Used(); got != 50 {
		t.Fatalf("root used = %d, want 50", got)
	}
	// Within eval's own 200 but over root's remaining 50: root trips.
	err := eval.ReserveBytes(60)
	var ebe *ErrBudgetExceeded
	if !errors.As(err, &ebe) || ebe.Scope != "server" {
		t.Fatalf("want server-scope budget error, got %v", err)
	}
	// Rollback: eval must not have kept its local charge.
	if got := eval.Used(); got != 50 {
		t.Fatalf("eval used after rollback = %d, want 50", got)
	}
	// Over eval's own budget: eval trips locally, root untouched.
	err = eval.ReserveBytes(151)
	if !errors.As(err, &ebe) || ebe.Scope != "evaluation" {
		t.Fatalf("want evaluation-scope budget error, got %v", err)
	}
	if got := root.Used(); got != 50 {
		t.Fatalf("root used = %d, want 50", got)
	}
}

// Close returns a scope's whole footprint to its ancestors.
func TestCloseReleasesAll(t *testing.T) {
	root := New("server", Limits{MaxBytes: 100})
	job := root.Child("job", Limits{})
	job.ReserveBytes(70)
	job.Close()
	if got := root.Used(); got != 0 {
		t.Fatalf("root memory after close = %d, want 0", got)
	}
	if err := job.ReserveBytes(1); err == nil {
		t.Fatal("reserve on closed scope succeeded")
	}
}

func TestErrSaturation(t *testing.T) {
	root := New("server", Limits{MaxBytes: 10})
	child := root.Child("request", Limits{})
	if err := child.Err(); err != nil {
		t.Fatalf("unsaturated Err = %v", err)
	}
	child.ReserveBytes(10)
	var ebe *ErrBudgetExceeded
	if err := child.Err(); !errors.As(err, &ebe) || ebe.Resource != Memory {
		t.Fatalf("saturated Err = %v, want memory budget error", err)
	}
	child.ReleaseBytes(1)
	if err := child.Err(); err != nil {
		t.Fatalf("Err after release = %v", err)
	}
}

func TestCheckDisk(t *testing.T) {
	free := int64(1000)
	g := New("server", Limits{
		DiskDir:      "/journal",
		DiskHeadroom: 500,
		DiskFree:     func(dir string) (int64, error) { return free, nil },
	})
	if err := g.CheckDisk(); err != nil {
		t.Fatalf("plenty of space: %v", err)
	}
	free = 100
	err := g.CheckDisk()
	var ebe *ErrBudgetExceeded
	if !errors.As(err, &ebe) || ebe.Resource != Disk {
		t.Fatalf("want disk budget error, got %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("disk error %v does not match syscall.ENOSPC", err)
	}
	// The violation surfaces through children and through Err too.
	if err := g.Child("job", Limits{}).Err(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("child Err = %v, want ENOSPC", err)
	}
}

func TestNilGovernorIsNoop(t *testing.T) {
	var g *Governor
	if err := g.ReserveBytes(1 << 40); err != nil {
		t.Fatalf("nil reserve: %v", err)
	}
	g.ReleaseBytes(1)
	g.Close()
	if got := g.Used(); got != 0 {
		t.Fatalf("nil used = %d", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if g := From(context.Background()); g != nil {
		t.Fatalf("empty context carries %v", g)
	}
	g := New("server", Limits{})
	ctx := With(context.Background(), g)
	if got := From(ctx); got != g {
		t.Fatalf("From = %p, want %p", got, g)
	}
}

// Concurrent reserve/release across the hierarchy must be race-clean
// and never drive any counter negative.
func TestConcurrentReserveRelease(t *testing.T) {
	root := New("server", Limits{MaxBytes: 1 << 30})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child := root.Child("worker", Limits{MaxBytes: 1 << 20})
			for j := 0; j < 500; j++ {
				if err := child.ReserveBytes(128); err == nil {
					child.ReleaseBytes(128)
				}
			}
			child.Close()
		}()
	}
	wg.Wait()
	if got := root.Used(); got != 0 {
		t.Fatalf("root used after workers done = %d, want 0", got)
	}
}
