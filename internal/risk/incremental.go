package risk

import (
	"context"
	"fmt"

	"vadasa/internal/mdb"
	"vadasa/internal/pool"
)

// IncrementalAssessor is an Assessor that can re-score a dataset from a
// maintained mdb.GroupIndex instead of regrouping from scratch. The
// anonymization cycle builds the index once, feeds each iteration's
// suppression deltas into it, and hands the resulting dirty set to Rescore,
// so the per-iteration cost scales with how many tuples a batch actually
// disturbed rather than with the dataset.
//
// Implemented by KAnonymity, IndividualRisk and ReIdentification — the
// measures whose score is a pure function of a tuple's GroupInfo. SUDA's
// risk depends on subset-projection uniqueness (no single grouping captures
// it) and cluster.Assessor folds in graph propagation; neither implements
// the interface, and the cycle transparently falls back to full assessment
// for them.
type IncrementalAssessor interface {
	ContextAssessor
	// IndexAttrs resolves the attribute indexes the assessor groups rows
	// by — the index the cycle must build and maintain for Rescore.
	IndexAttrs(d *mdb.Dataset) ([]int, error)
	// Rescore evaluates risk from the index. With prev == nil every row is
	// scored (a full assessment off the maintained groups). Otherwise it
	// returns a fresh slice equal to prev except at the dirty row
	// positions, which are re-scored from the index's current infos; prev
	// is never mutated. Rescore with a nil prev must agree bitwise with
	// AssessContext on the same dataset — internal/anon's verifying test
	// assessor enforces exactly that on every cycle iteration.
	Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error)
}

// GroupScorer is the per-tuple core of an IncrementalAssessor: the score of
// one row as a pure function of its maintained GroupInfo (rowID is carried
// only for error identity). Rescore is implemented on top of ScoreGroup, so
// any executor that evaluates ScoreGroup elsewhere — another goroutine,
// another process, another machine — lands on the same bits the local path
// computes. The distributed shard layer (internal/dist) ships GroupInfos to
// worker processes and calls exactly this method on the other side.
type GroupScorer interface {
	// ScoreGroup returns the row's risk from its group aggregates. It must
	// be deterministic and free of shared state: two calls with the same
	// (g, rowID) return the same bits, on any host.
	ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error)
}

// rescoreRows runs score over either every row (prev == nil) or just the
// dirty rows, fanning the work out on the governor-charged pool. score must
// be a pure function of the row position; out slots are disjoint per chunk,
// so the result is independent of the worker count.
func rescoreRows(ctx context.Context, n int, dirty []int, prev []float64, score func(row int, out []float64) error) ([]float64, error) {
	out := make([]float64, n)
	if prev == nil {
		err := pool.Run(ctx, n, func(lo, hi int) error {
			for row := lo; row < hi; row++ {
				if err := score(row, out); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if len(prev) != n {
		return nil, fmt.Errorf("risk: rescore: previous vector has %d rows, index has %d", len(prev), n)
	}
	copy(out, prev)
	err := pool.Run(ctx, len(dirty), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := score(dirty[i], out); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// IndexAttrs implements IncrementalAssessor.
func (a KAnonymity) IndexAttrs(d *mdb.Dataset) ([]int, error) {
	if a.K < 2 {
		return nil, fmt.Errorf("risk: k-anonymity needs K >= 2, got %d", a.K)
	}
	return attrsOrQIs(d, a.Attrs)
}

// ScoreGroup implements GroupScorer: a tuple is dangerous exactly when its
// maintained group frequency is below K.
func (a KAnonymity) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if g.Freq < a.K {
		return 1, nil
	}
	return 0, nil
}

// Rescore implements IncrementalAssessor via ScoreGroup.
func (a KAnonymity) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	if a.K < 2 {
		return nil, fmt.Errorf("risk: k-anonymity needs K >= 2, got %d", a.K)
	}
	infos := idx.Infos()
	return rescoreRows(ctx, len(infos), dirty, prev, func(row int, out []float64) error {
		r, err := a.ScoreGroup(infos[row], idx.Dataset().Rows[row].ID)
		if err != nil {
			return err
		}
		out[row] = r
		return nil
	})
}

// IndexAttrs implements IncrementalAssessor.
func (a ReIdentification) IndexAttrs(d *mdb.Dataset) ([]int, error) {
	return attrsOrQIs(d, a.Attrs)
}

// ScoreGroup implements GroupScorer: risk is 1/ΣW over the maintained group
// weight sum.
func (a ReIdentification) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if g.WeightSum <= 0 {
		return 0, fmt.Errorf("risk: row %d has non-positive group weight %g", rowID, g.WeightSum)
	}
	return clamp01(1 / g.WeightSum), nil
}

// Rescore implements IncrementalAssessor via ScoreGroup.
func (a ReIdentification) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	infos := idx.Infos()
	rows := idx.Dataset().Rows
	return rescoreRows(ctx, len(infos), dirty, prev, func(row int, out []float64) error {
		r, err := a.ScoreGroup(infos[row], rows[row].ID)
		if err != nil {
			return err
		}
		out[row] = r
		return nil
	})
}

// IndexAttrs implements IncrementalAssessor.
func (a IndividualRisk) IndexAttrs(d *mdb.Dataset) ([]int, error) {
	return attrsOrQIs(d, a.Attrs)
}

// ScoreGroup implements GroupScorer. The posterior estimate is a pure
// function of the (f, ΣW) pair — the Monte-Carlo estimator derives its
// generator seed from the pair itself — so the result is independent of
// where and in what order the call runs. Callers scoring many rows should
// memoize per (f, ΣW) pair, as Rescore does; ScoreGroup itself never caches.
func (a IndividualRisk) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if g.WeightSum <= 0 {
		return 0, fmt.Errorf("risk: row %d has non-positive group weight %g", rowID, g.WeightSum)
	}
	samples := a.Samples
	if samples <= 0 {
		samples = 200
	}
	return a.estimate(g.Freq, g.WeightSum, samples), nil
}

// Rescore implements IncrementalAssessor. The posterior estimate is a pure
// function of a group's (f, ΣW) pair — the Monte-Carlo estimator derives
// its generator seed from the pair itself — so re-scoring an arbitrary
// subset of rows, in any order and on any number of workers, lands on the
// same values a full assessment computes. The per-chunk memo only saves
// recomputation.
func (a IndividualRisk) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	infos := idx.Infos()
	rows := idx.Dataset().Rows
	return rescoreChunked(ctx, len(infos), dirty, prev, func(rowsIdx []int, out []float64) error {
		cache := make(map[gkey]float64)
		for _, row := range rowsIdx {
			g := infos[row]
			k := gkey{g.Freq, g.WeightSum}
			r, ok := cache[k]
			if !ok {
				var err error
				r, err = a.ScoreGroup(g, rows[row].ID)
				if err != nil {
					return err
				}
				cache[k] = r
			}
			out[row] = r
		}
		return nil
	})
}

// rescoreChunked is rescoreRows for scorers that amortize state (a memo
// cache) across a chunk: score receives the row positions of one chunk and
// writes their slots in out.
func rescoreChunked(ctx context.Context, n int, dirty []int, prev []float64, score func(rows []int, out []float64) error) ([]float64, error) {
	out := make([]float64, n)
	if prev == nil {
		err := pool.Run(ctx, n, func(lo, hi int) error {
			rows := make([]int, hi-lo)
			for i := range rows {
				rows[i] = lo + i
			}
			return score(rows, out)
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if len(prev) != n {
		return nil, fmt.Errorf("risk: rescore: previous vector has %d rows, index has %d", len(prev), n)
	}
	copy(out, prev)
	err := pool.Run(ctx, len(dirty), func(lo, hi int) error {
		return score(dirty[lo:hi], out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
