package risk

import (
	"context"
	"fmt"

	"vadasa/internal/mdb"
	"vadasa/internal/pool"
)

// IncrementalAssessor is an Assessor that can re-score a dataset from a
// maintained mdb.GroupIndex instead of regrouping from scratch: Live builds
// the index once, feeds each delta into it, and hands the resulting dirty
// set to Rescore, so the cost of staying current scales with how many
// tuples a batch actually disturbed rather than with the dataset.
//
// Implemented by KAnonymity, IndividualRisk, ReIdentification, LDiversity and
// TCloseness — the measures whose score is a pure function of a tuple's
// GroupInfo. SUDA's risk depends on subset-projection uniqueness (no single
// grouping captures it) and cluster.Assessor folds in graph propagation;
// neither implements the interface, and Live scores them one-shot.
type IncrementalAssessor interface {
	ContextAssessor
	// Grouping resolves the index the assessor scores from — the attributes
	// it groups rows by and, for the attribute-disclosure measures, the
	// sensitive attribute — which Live must build and maintain for Rescore.
	Grouping(d *mdb.Dataset) (mdb.Grouping, error)
	// Rescore evaluates risk from the index. With prev == nil every row is
	// scored (a full assessment off the maintained groups). Otherwise it
	// returns a fresh slice equal to prev except at the dirty row
	// positions, which are re-scored from the index's current infos; prev
	// is never mutated. Rescore with a nil prev must agree bitwise with
	// AssessContext on the same dataset — internal/anon's verifying test
	// assessor enforces exactly that on every cycle iteration.
	Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error)
}

// GroupScorer is the per-tuple core of a group measure: the score of one row
// as a pure function of its GroupInfo (rowID is carried only for error
// identity). Every way of assessing such a measure — in full, incrementally,
// on another process (internal/dist ships GroupInfos to workers) — is the
// one loop below around ScoreGroup, so they all land on the same bits.
type GroupScorer interface {
	// ScoreGroup returns the row's risk from its group aggregates. It must
	// be deterministic and free of shared state: two calls with the same
	// (g, rowID) return the same bits, on any host.
	ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error)
}

// groupMeasure is everything that defines a group measure: a name, one
// parameter check, the grouping it needs and the score of a group. Assess,
// AssessContext and Rescore of the five implementations are calls into
// assessGroups and rescoreGroups.
type groupMeasure interface {
	IncrementalAssessor
	GroupScorer
	// check validates the measure's parameters.
	check() error
}

// gkey identifies a Monte-Carlo estimate: groups sharing a (sample
// frequency, weight sum) pair share their risk.
type gkey struct {
	f int
	w float64
}

// scoreGroups is the one scoring loop: it writes into out the score of the
// rows at positions (nil means every row of infos), fanned out on the
// governor-charged pool over at most workers goroutines (0: as many as it
// has). out slots are disjoint per chunk, so the result is independent of
// the worker count; chunks are contiguous and each stops at its first
// failure, so the error returned is the lowest failing row's. rowID resolves
// a position to the row ID a scoring error names.
func scoreGroups(ctx context.Context, workers int, m groupMeasure, infos []mdb.GroupInfo, rowID func(pos int) int, positions []int, out []float64) error {
	if err := m.check(); err != nil {
		return err
	}
	n := len(infos)
	if positions != nil {
		n = len(positions)
	}
	// Only the Monte-Carlo estimate — Samples × f draws — costs more than a
	// map lookup: it alone is memoized, per chunk, by the (f, ΣW) pair it is
	// a pure function of.
	ir, ok := m.(IndividualRisk)
	memoize := ok && ir.Estimator == MonteCarlo
	return pool.RunWorkers(ctx, workers, n, func(lo, hi int) error {
		var memo map[gkey]float64
		if memoize {
			memo = make(map[gkey]float64)
		}
		for i := lo; i < hi; i++ {
			if err := pollCtx(ctx, i, m); err != nil {
				return err
			}
			pos := i
			if positions != nil {
				pos = positions[i]
			}
			g := infos[pos]
			k := gkey{g.Freq, g.WeightSum}
			if memo != nil {
				if r, ok := memo[k]; ok {
					out[pos] = r
					continue
				}
			}
			r, err := m.ScoreGroup(g, rowID(pos))
			if err != nil {
				return err
			}
			if memo != nil {
				memo[k] = r
			}
			out[pos] = r
		}
		return nil
	})
}

// assessGroups is a group measure's AssessContext: one pass of the grouping
// kernel over d, then every row scored — both on the calling goroutine: a
// server runs one full assessment per request, and concurrent requests are
// its parallelism.
func assessGroups(ctx context.Context, m groupMeasure, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	by, err := m.Grouping(d)
	if err != nil {
		return nil, err
	}
	return rescoreRows(ctx, 1, m, mdb.ComputeInfos(d, by, sem), d.Rows, nil, nil)
}

// rescoreGroups is a group measure's Rescore, off the maintained index and
// across the pool.
func rescoreGroups(ctx context.Context, m groupMeasure, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	return rescoreRows(ctx, 0, m, idx.Infos(), idx.Dataset().Rows, dirty, prev)
}

// rescoreRows scores every row (prev == nil) or, on a copy of prev, the dirty
// ones, on at most workers goroutines; infos and rows are parallel.
func rescoreRows(ctx context.Context, workers int, m groupMeasure, infos []mdb.GroupInfo, rows []*mdb.Row, dirty []int, prev []float64) ([]float64, error) {
	out := make([]float64, len(infos))
	if prev == nil {
		dirty = nil // every row
	} else {
		if len(prev) != len(infos) {
			return nil, fmt.Errorf("risk: rescore: previous vector has %d rows, index has %d", len(prev), len(infos))
		}
		copy(out, prev)
		if len(dirty) == 0 {
			return out, nil
		}
	}
	if err := scoreGroups(ctx, workers, m, infos, func(pos int) int { return rows[pos].ID }, dirty, out); err != nil {
		return nil, err
	}
	return out, nil
}
