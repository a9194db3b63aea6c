package risk

import (
	"context"
	"fmt"

	"vadasa/internal/mdb"
)

// KAnonymity is the threshold approximation of Algorithm 4: a tuple whose
// quasi-identifier combination occurs fewer than K times is dangerous
// (risk 1), safe otherwise (risk 0).
type KAnonymity struct {
	K int
	// Attrs optionally restricts the evaluation to a subset of the
	// quasi-identifiers.
	Attrs []string
}

// Name implements Assessor.
func (a KAnonymity) Name() string { return fmt.Sprintf("k-anonymity(k=%d)", a.K) }

func (a KAnonymity) check() error {
	if a.K < 2 {
		return fmt.Errorf("risk: k-anonymity needs K >= 2, got %d", a.K)
	}
	return nil
}

// Grouping implements IncrementalAssessor.
func (a KAnonymity) Grouping(d *mdb.Dataset) (mdb.Grouping, error) {
	if err := a.check(); err != nil {
		return mdb.Grouping{}, err
	}
	return groupBy(d, a.Attrs)
}

// ScoreGroup implements GroupScorer: a tuple is dangerous exactly when its
// group frequency is below K.
func (a KAnonymity) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if g.Freq < a.K {
		return 1, nil
	}
	return 0, nil
}

// Assess implements Assessor.
func (a KAnonymity) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(context.Background(), a, d, sem)
}

// AssessContext implements ContextAssessor.
func (a KAnonymity) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(ctx, a, d, sem)
}

// Rescore implements IncrementalAssessor.
func (a KAnonymity) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	return rescoreGroups(ctx, a, idx, dirty, prev)
}
