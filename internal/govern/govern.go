// Package govern implements a hierarchical resource governor for the
// Vada-SA pipeline. A Governor tracks estimated heap bytes against a
// configurable budget and checks journal-directory disk headroom,
// arranged as a tree: the server holds the root, each job or HTTP
// request runs under a child, and each reasoning or anonymization
// evaluation under a grandchild. A ReserveBytes on a child is charged
// against every ancestor, so one runaway evaluation cannot starve the
// process even when its own scope is unlimited.
//
// The zero budget means "unlimited": a Governor with empty Limits is a
// pure accounting node, useful as an intermediate scope whose Close
// releases everything it ever reserved in one step.
//
// Governors are safe for concurrent use. Budgets are advisory
// estimates, not allocator hooks: callers reserve before allocating
// and release when the memory becomes unreachable, so the tracked
// numbers bound the high-water mark rather than live heap bytes.
package govern

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
)

// Resource labels which limit an ErrBudgetExceeded reports.
type Resource string

const (
	// Memory is estimated heap bytes (datasets, fact databases,
	// subset pools, checkpoint buffers), the one thing reserved.
	Memory Resource = "memory"
	// Disk is free-space headroom in the journal directory. Disk is
	// checked, not reserved: see (*Governor).CheckDisk.
	Disk Resource = "disk"
)

// ErrBudgetExceeded reports a reservation that would overrun a budget,
// carrying which resource tripped, the scope (governor name) that
// enforced it, and the numbers involved. Match with errors.As:
//
//	var ebe *govern.ErrBudgetExceeded
//	if errors.As(err, &ebe) { ... }
type ErrBudgetExceeded struct {
	Resource  Resource // which budget tripped
	Scope     string   // name of the governor that enforced it
	Requested int64    // size of the failed reservation (0 for disk checks)
	Used      int64    // amount already reserved in that scope (free bytes for disk)
	Budget    int64    // the configured limit (headroom for disk)
}

func (e *ErrBudgetExceeded) Error() string {
	if e.Resource == Disk {
		return fmt.Sprintf("govern: %s budget exceeded in scope %q: %d bytes free, headroom %d required",
			e.Resource, e.Scope, e.Used, e.Budget)
	}
	return fmt.Sprintf("govern: %s budget exceeded in scope %q: reserving %d over %d used of %d",
		e.Resource, e.Scope, e.Requested, e.Used, e.Budget)
}

// Limits configures the budgets a Governor enforces. Zero values mean
// unlimited (or, for disk, "not checked").
type Limits struct {
	MaxBytes int64 // estimated heap bytes

	// DiskDir, when non-empty, enables CheckDisk: the directory whose
	// filesystem must keep at least DiskHeadroom bytes free.
	DiskDir      string
	DiskHeadroom int64
	// DiskFree overrides how free space is measured (tests inject
	// fakes here). Nil means the platform statfs via DiskFree().
	DiskFree func(dir string) (int64, error)
}

// Governor tracks reservations against Limits and forwards every
// charge to its parent, if any.
type Governor struct {
	name   string
	parent *Governor
	limits Limits

	mu     sync.Mutex
	used   int64 // estimated bytes, descendants' charges included
	closed bool
}

// New creates a root governor.
func New(name string, l Limits) *Governor {
	return &Governor{name: name, limits: l}
}

// Child creates a sub-governor whose reservations are also charged to
// g (and transitively to g's ancestors). Close the child to release
// everything it still holds.
func (g *Governor) Child(name string, l Limits) *Governor {
	c := New(name, l)
	c.parent = g
	return c
}

// Name returns the scope name the governor was created with.
func (g *Governor) Name() string { return g.name }

// ReserveBytes charges n estimated bytes against this governor and all
// its ancestors. If any scope would overrun its budget the whole
// reservation is rolled back and a *ErrBudgetExceeded naming that
// scope is returned. n <= 0 is a no-op. It also satisfies the
// engine-facing governor interfaces declared locally by packages that
// must not import govern (internal/datalog).
func (g *Governor) ReserveBytes(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	if err := g.reserveLocal(n); err != nil {
		return err
	}
	if err := g.parent.ReserveBytes(n); err != nil {
		g.releaseLocal(n)
		return err
	}
	return nil
}

func (g *Governor) reserveLocal(n int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("govern: reserve memory on closed scope %q", g.name)
	}
	if b := g.limits.MaxBytes; b > 0 && g.used+n > b {
		return &ErrBudgetExceeded{Resource: Memory, Scope: g.name, Requested: n, Used: g.used, Budget: b}
	}
	g.used += n
	return nil
}

func (g *Governor) releaseLocal(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.used = max(g.used-n, 0)
}

// ReleaseBytes returns n estimated bytes to this governor and all its
// ancestors. Releasing more than was reserved clamps to zero.
func (g *Governor) ReleaseBytes(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.releaseLocal(n)
	g.parent.ReleaseBytes(n)
}

// Used reports how many estimated bytes are currently reserved in this
// scope (including its descendants' charges).
func (g *Governor) Used() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// CheckDisk verifies the disk-headroom constraint of this governor and
// every ancestor that configures one. A violation is returned as
// *ErrBudgetExceeded with Resource == Disk and also matches
// errors.Is(err, syscall.ENOSPC) so callers can classify it alongside
// real write failures from a full disk.
func (g *Governor) CheckDisk() error {
	for s := g; s != nil; s = s.parent {
		if s.limits.DiskDir == "" || s.limits.DiskHeadroom <= 0 {
			continue
		}
		free, err := s.freeBytes()
		if err != nil {
			if errors.Is(err, errUnsupported) {
				continue // platform cannot measure; do not block work
			}
			return fmt.Errorf("govern: disk check in scope %q: %w", s.name, err)
		}
		if free < s.limits.DiskHeadroom {
			// Wrap ENOSPC too, so disk-headroom violations classify
			// exactly like real write failures from a full volume.
			return fmt.Errorf("%w (%w)", &ErrBudgetExceeded{
				Resource: Disk, Scope: s.name, Used: free, Budget: s.limits.DiskHeadroom,
			}, syscall.ENOSPC)
		}
	}
	return nil
}

func (g *Governor) freeBytes() (int64, error) {
	if g.limits.DiskFree != nil {
		return g.limits.DiskFree(g.limits.DiskDir)
	}
	return DiskFree(g.limits.DiskDir)
}

// Err reports why this governor cannot currently admit new work: a
// fully consumed budget in this scope or any ancestor, or a disk
// headroom violation. It returns nil when there is capacity. Probes
// (/readyz) and admission control build on this.
func (g *Governor) Err() error {
	for s := g; s != nil; s = s.parent {
		s.mu.Lock()
		used, b := s.used, s.limits.MaxBytes
		s.mu.Unlock()
		if b > 0 && used >= b {
			return &ErrBudgetExceeded{Resource: Memory, Scope: s.name, Used: used, Budget: b}
		}
	}
	return g.CheckDisk()
}

// Close releases every outstanding reservation of this governor from
// its ancestors and marks it closed; further reservations fail. Closing a
// scope is how a finished evaluation, request or job returns its whole
// footprint in one step regardless of individual ReleaseBytes bookkeeping.
func (g *Governor) Close() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	held := g.used
	g.used = 0
	g.mu.Unlock()
	g.parent.ReleaseBytes(held)
}
