package risk

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"runtime"

	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/pool"
)

// SUDA is the Special Unique Detection Algorithm of Algorithm 6: a tuple is
// dangerous when it has a minimal sample unique (MSU) — a minimal set of
// quasi-identifiers whose values single the tuple out — of size below
// Threshold, the assumption being that identities disclosed by very few
// attributes are too easy to cross-link.
type SUDA struct {
	// Threshold is the MSU size below which a tuple is dangerous
	// (Rule 8 of Algorithm 6). The paper's experiments use 3.
	Threshold int
	// MaxK bounds the size of the combinations searched; zero defaults to
	// Threshold, which is sufficient for the risk decision (ResolveMaxK).
	MaxK int
	// UseMeanSize switches to the "more sophisticated check" the paper
	// sketches at the end of Section 4.2: instead of any single small MSU,
	// the tuple is dangerous when the average size of all its MSUs is
	// below Threshold — one large MSU no longer condemns a tuple whose
	// other unique sets are broad.
	UseMeanSize bool
	// Attrs optionally restricts the evaluation to a subset of the
	// quasi-identifiers.
	Attrs []string
}

// Name implements Assessor.
func (a SUDA) Name() string { return fmt.Sprintf("suda(msu<%d)", a.Threshold) }

// Assess implements Assessor.
func (a SUDA) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return a.AssessContext(context.Background(), d, sem)
}

// AssessContext implements ContextAssessor: the combination search polls the
// context between attribute combinations, so even the exponential part of
// SUDA stops within one combination's worth of work.
func (a SUDA) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	maxK, err := a.ResolveMaxK()
	if err != nil {
		return nil, err
	}
	idx, err := attrsOrQIs(d, a.Attrs)
	if err != nil {
		return nil, err
	}
	msus, err := MSUsContext(ctx, d, idx, maxK, sem)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(d.Rows))
	for i, ms := range msus {
		if a.UseMeanSize {
			if len(ms) == 0 {
				continue
			}
			total := 0
			for _, m := range ms {
				total += bits.OnesCount32(m)
			}
			if float64(total)/float64(len(ms)) < float64(a.Threshold) {
				out[i] = 1
			}
			continue
		}
		for _, m := range ms {
			if bits.OnesCount32(m) < a.Threshold {
				out[i] = 1
				break
			}
		}
	}
	return out, nil
}

// ResolveMaxK validates the measure and returns the largest combination
// size its search covers: MaxK, or Threshold when MaxK is zero. A negative
// MaxK is refused — no size would be searched and every tuple called safe.
func (a SUDA) ResolveMaxK() (int, error) {
	if a.Threshold < 1 {
		return 0, fmt.Errorf("risk: SUDA needs Threshold >= 1, got %d", a.Threshold)
	}
	if a.MaxK < 0 {
		return 0, fmt.Errorf("risk: SUDA needs MaxK >= 0, got %d", a.MaxK)
	}
	return cmp.Or(a.MaxK, a.Threshold), nil
}

// MSUsContext enumerates, for every row, its minimal sample uniques of size
// at most maxK over the attribute indexes idx, as bitmasks over positions of
// idx. A set S is a sample unique for row t when t is the only row matching
// its own projection on S; it is minimal when no proper subset of S is itself
// a sample unique for t (the data-level analogue of superkey vs key discussed
// in Section 4.2).
//
// The search proceeds by increasing combination size, so a candidate is
// minimal exactly when no previously recorded MSU is a subset of it — the
// pruning that keeps the enumeration polynomial per tuple and reproduces the
// non-blowup behaviour of Figure 7f. Every combination is a column selection
// of one mdb.CodeTable over idx, so the cells' strings are read once per
// search, not once per combination.
//
// The worker pool polls ctx before counting each combination, and on
// cancellation the search returns an error wrapping ctx.Err() once the
// combinations in flight are done; with a background context it fails only
// on more than MaxMSUAttributes attributes, with ErrTooManyAttributes.
func MSUsContext(ctx context.Context, d *mdb.Dataset, idx []int, maxK int, sem mdb.Semantics) ([][]uint32, error) {
	if len(idx) > MaxMSUAttributes {
		return nil, &ErrTooManyAttributes{Count: len(idx), Max: MaxMSUAttributes}
	}
	if maxK > len(idx) {
		maxK = len(idx)
	}
	// When ctx carries a resource governor, the code table, the subset pool,
	// the per-worker buffers and the recorded MSUs are charged against the
	// memory budget, so a combinatorial blowup trips a typed budget error
	// instead of exhausting the process. Everything is refunded when the
	// search returns; govern methods are nil-safe, so the ungoverned path
	// pays only nil checks.
	gov := govern.From(ctx)
	var charged int64
	defer func() { gov.ReleaseBytes(charged) }()
	reserve := func(n int64, what string, s int) error {
		if err := gov.ReserveBytes(n); err != nil {
			return fmt.Errorf("risk: MSU search %s at combination size %d: %w", what, s, err)
		}
		charged += n
		return nil
	}
	out := make([][]uint32, len(d.Rows))
	if err := reserve(int64(len(d.Rows))*24, "result buffers", 0); err != nil {
		return nil, err
	}
	table := mdb.NewCodeTable(d, idx, sem)
	if err := reserve(table.EstimatedBytes(), "code table", 0); err != nil {
		return nil, err
	}

	var masks []uint32
	var genMasks func(start int, mask uint32, size int)
	genMasks = func(start int, mask uint32, size int) {
		if size == 0 {
			masks = append(masks, mask)
			return
		}
		for i := start; i <= len(idx)-size; i++ {
			genMasks(i+1, mask|1<<uint(i), size-1)
		}
	}
	// Frequency counting per combination is independent work: fan the
	// masks of one size class out to all cores, then fold the uniqueness
	// results sequentially in mask order so minimality filtering stays
	// deterministic. This is the data parallelism behind the paper's
	// scalability desideratum (viii).
	workers := runtime.GOMAXPROCS(0)
	for s := 1; s <= maxK; s++ {
		masks = masks[:0]
		genMasks(0, 0, s)
		// Subset pool (masks + per-mask unique-row slice headers) and
		// per-worker scratch for this size class.
		subsets := int64(len(masks))*(4+24) + int64(workers)*int64(8*maxK+48)
		if err := reserve(subsets, "subset pool", s); err != nil {
			return nil, err
		}
		unique := make([][]int, len(masks)) // rows that are sample-unique per mask
		err := pool.ForEach(ctx, workers, len(masks), func(mi int) error {
			mask := masks[mi]
			sel := make([]int, 0, maxK)
			for i := range idx {
				if mask&(1<<uint(i)) != 0 {
					sel = append(sel, i)
				}
			}
			for row, g := range table.Group(sel) {
				if g.Freq == 1 {
					unique[mi] = append(unique[mi], row)
				}
			}
			return nil
		})
		if err != nil { // the context's: counting a combination cannot fail
			return nil, fmt.Errorf("risk: MSU search cancelled at combination size %d: %w", s, err)
		}

		var uniqueRows, recorded int64
		for mi, mask := range masks {
			uniqueRows += int64(len(unique[mi]))
			for _, row := range unique[mi] {
				minimal := true
				for _, m := range out[row] {
					if m&mask == m {
						minimal = false
						break
					}
				}
				if minimal {
					out[row] = append(out[row], mask)
					recorded++
				}
			}
		}
		// Charge what this size class actually accumulated: the unique-row
		// indexes folded above and the MSUs recorded into the result.
		if err := reserve(uniqueRows*8+recorded*4, "recorded uniques", s); err != nil {
			return nil, err
		}
	}
	return out, nil
}
