package dist

import (
	"context"
	"fmt"
	"slices"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// Assessor adapts a Supervisor into a risk.IncrementalAssessor, so the
// anonymization cycle's incremental path transparently executes its
// per-iteration re-scoring on the worker fleet: Config.Assessor gets an
// *Assessor and nothing else in the cycle changes.
//
// Only Rescore is distributed. Everything else is the embedded local
// measure's own: its name, so logs, errors and journal records are
// indistinguishable from a local run, and its full assessments — they run
// once per job against many Rescore calls, and keeping them local means a
// test that cross-checks every Rescore against AssessContext (internal/anon's
// verifying assessor) doubles as a distributed-vs-local bitwise verification.
type Assessor struct {
	risk.IncrementalAssessor
	spec MeasureSpec
	sup  *Supervisor
}

// NewAssessor wraps inner for supervised execution. It fails for measures
// that cannot ship over the wire (see SpecFor); callers fall back to using
// inner directly — the same degradation the supervisor applies at runtime,
// decided at configuration time instead.
func NewAssessor(inner risk.IncrementalAssessor, sup *Supervisor) (*Assessor, error) {
	spec, ok := SpecFor(inner)
	if !ok {
		return nil, fmt.Errorf("dist: measure %s is not distributable", inner.Name())
	}
	return &Assessor{IncrementalAssessor: inner, spec: spec, sup: sup}, nil
}

// Rescore implements risk.IncrementalAssessor by sharding the dirty rows'
// group aggregates across the supervisor's workers. The contract is the
// local one, bit for bit: out equals prev except at dirty positions, which
// carry exactly the values the local Rescore would have computed — worker and
// fallback both evaluate the shared risk.GroupScorer code.
func (a *Assessor) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	n := len(idx.Infos())
	if prev == nil {
		// Every row, in position order: the values are the vector.
		return a.sup.Execute(ctx, a.spec, TaskRows(idx, nil))
	}
	if len(prev) != n {
		// The exact error the local rescore paths produce.
		return nil, fmt.Errorf("risk: rescore: previous vector has %d rows, index has %d", len(prev), n)
	}
	values, err := a.sup.Execute(ctx, a.spec, TaskRows(idx, dirty))
	if err != nil {
		return nil, err
	}
	out := slices.Clone(prev)
	for i, pos := range dirty {
		out[pos] = values[i]
	}
	return out, nil
}
