package risk

import (
	"context"
	"fmt"

	"vadasa/internal/mdb"
)

// TCloseness completes the classic disclosure-control triad alongside
// k-anonymity and l-diversity: a quasi-identifier group leaks information
// when the distribution of a sensitive attribute inside the group is far
// from its distribution over the whole table — even a diverse group
// discloses something if, say, 90% of its members defaulted while the global
// rate is 5%. A tuple is dangerous (risk 1) when the total-variation
// distance between its group's sensitive distribution and the global one
// exceeds T.
//
// The original definition uses the Earth Mover's Distance; for categorical
// sensitive attributes with no meaningful order, EMD under the uniform
// ground distance reduces to total variation, which is what financial
// microdata's binned attributes call for.
type TCloseness struct {
	T         float64
	Sensitive string
	// Attrs optionally restricts the grouping to a subset of the
	// quasi-identifiers.
	Attrs []string
}

// Name implements Assessor.
func (a TCloseness) Name() string {
	return fmt.Sprintf("t-closeness(t=%g,%s)", a.T, a.Sensitive)
}

func (a TCloseness) check() error {
	if !Probability(a.T) || a.T == 0 || a.T == 1 {
		return fmt.Errorf("risk: t-closeness needs T in (0,1), got %g", a.T)
	}
	return nil
}

// Grouping implements IncrementalAssessor.
func (a TCloseness) Grouping(d *mdb.Dataset) (mdb.Grouping, error) {
	if err := a.check(); err != nil {
		return mdb.Grouping{}, err
	}
	return groupBySensitive(d, a.Attrs, a.Sensitive)
}

// ScoreGroup implements GroupScorer. The distance ½·Σ|c/n − C/N| between the
// sensitive distribution of the rows the tuple may be grouped with and the
// table's (nulls excluded from both) is compared to T scaled by 2·n·N, so
// the sum is over integers: exact, and the same in whatever order it was
// taken. A group with no sensitive value is at distance 1.
func (a TCloseness) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if g.SensTotal == 0 {
		return 0, fmt.Errorf("risk: sensitive attribute %q has no constant values", a.Sensitive)
	}
	if g.SensCount == 0 || float64(g.SensDist) > 2*a.T*float64(g.SensCount)*float64(g.SensTotal) {
		return 1, nil
	}
	return 0, nil
}

// Assess implements Assessor.
func (a TCloseness) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(context.Background(), a, d, sem)
}

// AssessContext implements ContextAssessor.
func (a TCloseness) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(ctx, a, d, sem)
}

// Rescore implements IncrementalAssessor.
func (a TCloseness) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	return rescoreGroups(ctx, a, idx, dirty, prev)
}
