package risk

import (
	"context"
	"fmt"

	"vadasa/internal/govern"
	"vadasa/internal/mdb"
)

// Live keeps one measure's risk vector current over a dataset that changes
// in place — the anonymization cycle's working copy, a stream's window. The
// dataset's owner reports each change as a delta and asks for the vector
// with Risks, always bit-identical to a fresh AssessContext.
//
// For an IncrementalAssessor the view owns an mdb.GroupIndex, the previous
// vector and the governor reservation for both: unbuilt until the first
// Risks, dirty while deltas wait in the index (Risks commits them and
// re-scores only the rows whose group changed), invalid after Invalidate
// (Risks rebuilds). For any other assessor, or with indexing switched off,
// it holds nothing: a delta marks the vector stale and Risks reassesses
// one-shot. Errors come back as they are and leave the view usable — a
// refused reservation is the governor's typed error — so what to do about
// one stays the caller's policy. Not safe for concurrent use: the owner
// serializes it with the dataset.
type Live struct {
	a   Assessor
	ia  IncrementalAssessor // nil: a is scored one-shot
	d   *mdb.Dataset
	sem mdb.Semantics
	gov *govern.Governor

	idx     *mdb.GroupIndex // nil until the first Risks of an incremental view
	risks   []float64       // the vector as of the last successful Risks
	behind  int             // deltas absorbed since then
	charged int64           // bytes reserved for idx and risks
}

// NewLive returns a view of a's risk over d; nothing is computed, or reserved
// on gov, before the first Risks.
func NewLive(a Assessor, d *mdb.Dataset, sem mdb.Semantics, gov *govern.Governor) *Live {
	ia, _ := a.(IncrementalAssessor)
	return &Live{a: a, ia: ia, d: d, sem: sem, gov: gov}
}

// SetIndexing switches index maintenance off — the view scores one-shot from
// then on — or back on, if the measure has an incremental path at all;
// either way it drops what the view holds. A stream whose index the governor
// refused and a standby's replay view, which must hold no index between
// shipped records, switch it off.
func (v *Live) SetIndexing(on bool) {
	v.Close()
	v.ia = nil
	if on {
		v.ia, _ = v.a.(IncrementalAssessor)
	}
}

// Incremental reports whether the view maintains an index or scores one-shot.
func (v *Live) Incremental() bool { return v.ia != nil }

// Behind counts the deltas absorbed since Risks last succeeded.
func (v *Live) Behind() int { return v.behind }

// Index returns the view's group index if it mirrors the dataset as it
// stands — built, valid, no delta since the last Risks — else nil. It is the
// view's own: read-only, valid until the next delta or Risks.
func (v *Live) Index() *mdb.GroupIndex {
	if v.behind > 0 || v.idx == nil || !v.idx.Valid() {
		return nil
	}
	return v.idx
}

// Current returns the vector if it reflects the dataset as it stands, else nil.
func (v *Live) Current() []float64 {
	if v.behind > 0 {
		return nil
	}
	return v.risks
}

// delta counts a change and returns the index to fold it into, if any.
func (v *Live) delta() *mdb.GroupIndex {
	v.behind++
	if v.idx == nil || !v.idx.Valid() {
		return nil
	}
	return v.idx
}

// Suppressed reports that cell (row position, attribute index) is now null.
func (v *Live) Suppressed(pos, attr int) error {
	if idx := v.delta(); idx != nil {
		return idx.SuppressCell(pos, attr)
	}
	return nil
}

// Appended reports that rows were appended at the dataset's tail.
func (v *Live) Appended() error {
	idx := v.delta()
	for idx != nil && idx.Len() < len(v.d.Rows) {
		if err := idx.AppendRow(idx.Len()); err != nil {
			return err
		}
		if v.risks != nil {
			v.risks = append(v.risks, 0) // always dirty: re-scored before it is read
		}
	}
	return nil
}

// Deleted reports that the rows at the given positions — strictly ascending,
// as they stood before — are gone and the dataset is compacted.
func (v *Live) Deleted(positions []int) error {
	idx := v.delta()
	if idx == nil {
		return nil
	}
	if err := idx.DeleteRows(positions); err != nil {
		return err
	}
	if v.risks != nil {
		v.risks = mdb.RemovePositions(v.risks, positions)
	}
	return nil
}

// Invalidate reports a change with no delta form: global recoding rewrites
// arbitrarily many cells, a replica applies records it does not look into.
func (v *Live) Invalidate() {
	if idx := v.delta(); idx != nil {
		idx.Invalidate()
	}
}

// Risks returns one score per row position of the dataset as it stands. The
// slice is the view's own: read-only, valid until the next delta or Risks.
func (v *Live) Risks(ctx context.Context) ([]float64, error) {
	if v.risks != nil && v.behind == 0 {
		return v.risks, nil
	}
	risks, err := v.assess(ctx)
	if err != nil {
		v.risks = nil // what survived may no longer line up with the index
		return nil, err
	}
	v.risks, v.behind = risks, 0
	return risks, nil
}

func (v *Live) assess(ctx context.Context) ([]float64, error) {
	if v.ia == nil {
		return AssessContext(ctx, v.a, v.d, v.sem)
	}
	if v.idx != nil && v.idx.Valid() {
		dirty, err := v.idx.Commit(ctx)
		if err != nil {
			v.idx.Invalidate() // a commit cut short leaves it between two states
			return nil, err
		}
		return v.ia.Rescore(ctx, v.idx, dirty, v.risks)
	}
	by, err := v.ia.Grouping(v.d)
	if err != nil {
		return nil, err
	}
	idx, err := mdb.BuildIndex(ctx, v.d, by, v.sem)
	if err != nil {
		return nil, err
	}
	// The reservation (the vector's bytes ride along) moves to the fresh
	// index before the old one becomes collectable.
	bytes := idx.EstimatedBytes() + int64(len(v.d.Rows))*8
	//governcharge:ok — swapped here on a rebuild, refunded by Close
	if err := v.gov.ReserveBytes(bytes); err != nil {
		return nil, fmt.Errorf("risk: building group index: %w", err)
	}
	v.gov.ReleaseBytes(v.charged)
	v.idx, v.charged = idx, bytes
	return v.ia.Rescore(ctx, idx, nil, nil)
}

// Close drops the index and refunds its reservation.
func (v *Live) Close() {
	v.gov.ReleaseBytes(v.charged)
	v.idx, v.risks, v.charged = nil, nil, 0
}
