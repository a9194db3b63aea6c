package risk

import (
	"context"
	"fmt"

	"vadasa/internal/mdb"
)

// LDiversity extends the framework beyond the paper's off-the-shelf
// measures: even a k-anonymous group discloses information when all its
// members share the same sensitive value (the homogeneity attack on
// k-anonymity). A tuple is dangerous (risk 1) when its quasi-identifier
// group carries fewer than L distinct values of the sensitive attribute.
//
// The sensitive attribute is typically one of the non-identifying business
// attributes — e.g. Growth6mos in the Inflation & Growth survey: knowing
// that *every* textile company in an area shrank discloses each one's
// performance without re-identifying anybody.
type LDiversity struct {
	L         int
	Sensitive string
	// Attrs optionally restricts the grouping to a subset of the
	// quasi-identifiers.
	Attrs []string
}

// Name implements Assessor.
func (a LDiversity) Name() string {
	return fmt.Sprintf("l-diversity(l=%d,%s)", a.L, a.Sensitive)
}

func (a LDiversity) check() error {
	if a.L < 2 {
		return fmt.Errorf("risk: l-diversity needs L >= 2, got %d", a.L)
	}
	return nil
}

// Grouping implements IncrementalAssessor.
func (a LDiversity) Grouping(d *mdb.Dataset) (mdb.Grouping, error) {
	if err := a.check(); err != nil {
		return mdb.Grouping{}, err
	}
	return groupBySensitive(d, a.Attrs, a.Sensitive)
}

// ScoreGroup implements GroupScorer: a tuple is dangerous exactly when the
// rows it may be grouped with — under maybe-match a set per tuple, not a
// partition — hold fewer than L distinct sensitive values. A suppressed
// value could be anything: all of them together add one.
func (a LDiversity) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if int(g.Distinct) < a.L {
		return 1, nil
	}
	return 0, nil
}

// Assess implements Assessor.
func (a LDiversity) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(context.Background(), a, d, sem)
}

// AssessContext implements ContextAssessor.
func (a LDiversity) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(ctx, a, d, sem)
}

// Rescore implements IncrementalAssessor.
func (a LDiversity) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	return rescoreGroups(ctx, a, idx, dirty, prev)
}
