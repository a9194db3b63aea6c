package anon

import (
	"context"
	"fmt"

	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// incrementalState threads one iteration's anonymization deltas into the
// next risk assessment. Instead of regrouping the whole dataset every
// iteration, the cycle builds a group index once, feeds each committed
// decision batch into it (local suppressions as cell→null transitions,
// anything else as an invalidation), and asks the assessor to re-score only
// the rows whose group membership actually changed.
//
// The state is only constructed for assessors implementing
// risk.IncrementalAssessor; for everything else — SUDA, the cluster
// assessor — the cycle keeps the reference full-assessment path. Both paths
// are bit-identical by construction (mdb.ComputeGroups is one pass of the
// index's own kernel and the estimators are pure per group), which the
// verifying assessor in incremental_test.go re-proves on every iteration.
type incrementalState struct {
	ia     risk.IncrementalAssessor
	attrs  []int
	sem    mdb.Semantics
	rowPos map[int]int // row ID → position, stable: the cycle never reorders

	idx  *mdb.GroupIndex
	prev []float64

	gov      *govern.Governor
	idxBytes int64
}

// newIncrementalState prepares incremental assessment for the cycle, or
// returns nil when the assessor cannot support it (not incremental, or its
// index attributes do not resolve — the full path will surface that error
// with its usual identity).
func newIncrementalState(work *mdb.Dataset, cfg Config, rowPos map[int]int, gov *govern.Governor) *incrementalState {
	ia, ok := cfg.Assessor.(risk.IncrementalAssessor)
	if !ok {
		return nil
	}
	attrs, err := ia.IndexAttrs(work)
	if err != nil {
		return nil
	}
	return &incrementalState{ia: ia, attrs: attrs, sem: cfg.Semantics, rowPos: rowPos, gov: gov}
}

// release refunds the index's memory reservation; deferred by the cycle.
func (s *incrementalState) release() {
	s.gov.Release(govern.Memory, s.idxBytes)
	s.idxBytes = 0
}

// assess returns the current risk vector: a build-and-full-score on the
// first call (and after an invalidation), a commit-and-rescore of just the
// dirty rows otherwise.
func (s *incrementalState) assess(ctx context.Context, work *mdb.Dataset) ([]float64, error) {
	var dirty []int
	if s.idx == nil || !s.idx.Valid() {
		idx, err := mdb.BuildGroupIndex(ctx, work, s.attrs, s.sem)
		if err != nil {
			return nil, err
		}
		// Swap the memory reservation to the fresh index before the old
		// one becomes collectable; the prev vector rides along.
		bytes := idx.EstimatedBytes() + int64(len(work.Rows))*8
		//governcharge:ok — released by release(), deferred in ResumeContext
		if err := s.gov.Reserve(govern.Memory, bytes); err != nil {
			return nil, fmt.Errorf("anon: building group index: %w", err)
		}
		s.gov.Release(govern.Memory, s.idxBytes)
		s.idx, s.idxBytes, s.prev = idx, bytes, nil
	} else {
		var err error
		dirty, err = s.idx.Commit(ctx)
		if err != nil {
			return nil, err
		}
	}
	out, err := s.ia.Rescore(ctx, s.idx, dirty, s.prev)
	if err != nil {
		return nil, err
	}
	s.prev = out
	return out, nil
}

// observe feeds one iteration's committed decisions into the index. Local
// suppressions are the cell→null transitions the index absorbs in place;
// any other method (global recoding rewrites arbitrarily many cells to
// constants the index has no delta form for) invalidates it, forcing a
// rebuild at the next assessment.
func (s *incrementalState) observe(work *mdb.Dataset, decisions []Decision) error {
	if s.idx == nil || !s.idx.Valid() {
		return nil
	}
	for _, dec := range decisions {
		if dec.Method != "local-suppression" {
			s.idx.Invalidate()
			return nil
		}
		pos, ok := s.rowPos[dec.RowID]
		if !ok {
			return fmt.Errorf("anon: incremental: decision references unknown tuple %d", dec.RowID)
		}
		attr := work.AttrIndex(dec.Attr)
		if attr < 0 {
			return fmt.Errorf("anon: incremental: decision references unknown attribute %q", dec.Attr)
		}
		if err := s.idx.SuppressCell(pos, attr); err != nil {
			return fmt.Errorf("anon: incremental: %w", err)
		}
	}
	return nil
}
