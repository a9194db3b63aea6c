// Package govern implements a hierarchical resource governor for the
// Vada-SA pipeline. A Governor tracks estimated resource consumption
// (bytes, goroutines, journal-directory disk headroom) against
// configurable budgets, arranged as a tree: the server holds the root,
// each job or HTTP request runs under a child, and each reasoning or
// anonymization evaluation under a grandchild. A Reserve on a child is
// charged against every ancestor, so one runaway evaluation cannot
// starve the process even when its own scope is unlimited.
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

// Resource identifies which budget a reservation draws from.
type Resource string

const (
	// Memory is estimated heap bytes (datasets, fact databases,
	// subset pools, checkpoint buffers).
	Memory Resource = "memory"
	// Goroutines is worker goroutines spawned by parallel stages.
	Goroutines Resource = "goroutines"
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
	MaxBytes      int64 // estimated heap bytes
	MaxGoroutines int64 // concurrently reserved worker goroutines

	// DiskDir, when non-empty, enables CheckDisk: the directory whose
	// filesystem must keep at least DiskHeadroom bytes free.
	DiskDir      string
	DiskHeadroom int64
	// DiskFree overrides how free space is measured (tests inject
	// fakes here). Nil means the platform statfs via DiskFree().
	DiskFree func(dir string) (int64, error)
}

func (l Limits) budget(r Resource) int64 {
	switch r {
	case Memory:
		return l.MaxBytes
	case Goroutines:
		return l.MaxGoroutines
	}
	return 0
}

// Governor tracks reservations against Limits and forwards every
// charge to its parent, if any.
type Governor struct {
	name   string
	parent *Governor
	limits Limits

	mu     sync.Mutex
	used   map[Resource]int64
	closed bool
}

// New creates a root governor.
func New(name string, l Limits) *Governor {
	return &Governor{name: name, limits: l, used: make(map[Resource]int64)}
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

// Reserve charges n units of r against this governor and all its
// ancestors. If any scope would overrun its budget the whole
// reservation is rolled back and a *ErrBudgetExceeded naming that
// scope is returned. n <= 0 is a no-op.
func (g *Governor) Reserve(r Resource, n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	if err := g.reserveLocal(r, n); err != nil {
		return err
	}
	if err := g.parent.Reserve(r, n); err != nil {
		g.releaseLocal(r, n)
		return err
	}
	return nil
}

func (g *Governor) reserveLocal(r Resource, n int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("govern: reserve %s on closed scope %q", r, g.name)
	}
	used := g.used[r]
	if b := g.limits.budget(r); b > 0 && used+n > b {
		return &ErrBudgetExceeded{Resource: r, Scope: g.name, Requested: n, Used: used, Budget: b}
	}
	g.used[r] = used + n
	return nil
}

func (g *Governor) releaseLocal(r Resource, n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if u := g.used[r] - n; u > 0 {
		g.used[r] = u
	} else {
		delete(g.used, r)
	}
}

// Release returns n units of r to this governor and all its
// ancestors. Releasing more than was reserved clamps to zero.
func (g *Governor) Release(r Resource, n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.releaseLocal(r, n)
	g.parent.Release(r, n)
}

// Used reports how many units of r are currently reserved in this
// scope (including its descendants' charges).
func (g *Governor) Used(r Resource) int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used[r]
}

// ReserveBytes and ReleaseBytes are the memory-budget convenience pair.
// They also satisfy the engine-facing governor interfaces declared
// locally by packages that must not import govern (internal/datalog).
func (g *Governor) ReserveBytes(n int64) error { return g.Reserve(Memory, n) }

// ReleaseBytes returns n estimated bytes to the memory budget.
func (g *Governor) ReleaseBytes(n int64) { g.Release(Memory, n) }

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
		for _, r := range [...]Resource{Memory, Goroutines} {
			b := s.limits.budget(r)
			if b > 0 && s.used[r] >= b {
				err := &ErrBudgetExceeded{Resource: r, Scope: s.name, Used: s.used[r], Budget: b}
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
	}
	return g.CheckDisk()
}

// Usage is a point-in-time snapshot of one scope's reservations,
// suitable for serving from observability endpoints.
type Usage struct {
	Scope      string `json:"scope"`
	Memory     int64  `json:"memory,omitempty"`
	Goroutines int64  `json:"goroutines,omitempty"`
}

// Stats snapshots the governor's current reservations. The numbers are
// consistent within the scope (taken under one lock) but not across the
// tree — this is an observability read, not a coordination primitive.
func (g *Governor) Stats() Usage {
	if g == nil {
		return Usage{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return Usage{
		Scope:      g.name,
		Memory:     g.used[Memory],
		Goroutines: g.used[Goroutines],
	}
}

// Close releases every outstanding reservation of this governor from
// its ancestors and marks it closed; further Reserves fail. Closing a
// scope is how a finished evaluation, request or job returns its whole
// footprint in one step regardless of individual Release bookkeeping.
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
	g.used = make(map[Resource]int64)
	g.mu.Unlock()
	for r, n := range held {
		g.parent.Release(r, n)
	}
}
