package risk

import (
	"context"

	"vadasa/internal/mdb"
)

// ReIdentification is the re-identification-based evaluation of Algorithm 3:
// the risk of a tuple is 1/ΣW over the tuples sharing its quasi-identifier
// combination, the sampling weights estimating the cardinality of the join
// with the identity oracle (Section 2.2).
type ReIdentification struct {
	// Attrs optionally restricts the evaluation to a subset q̂ of the
	// quasi-identifiers — the ones the attacker is assumed to know.
	Attrs []string
}

// Name implements Assessor.
func (ReIdentification) Name() string { return "re-identification" }

func (ReIdentification) check() error { return nil }

// Grouping implements IncrementalAssessor.
func (a ReIdentification) Grouping(d *mdb.Dataset) (mdb.Grouping, error) {
	return groupBy(d, a.Attrs)
}

// ScoreGroup implements GroupScorer: risk is 1/ΣW over the group weight sum.
func (a ReIdentification) ScoreGroup(g mdb.GroupInfo, rowID int) (float64, error) {
	if err := checkGroupWeight(g, rowID); err != nil {
		return 0, err
	}
	return clamp01(1 / g.WeightSum), nil
}

// Assess implements Assessor.
func (a ReIdentification) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(context.Background(), a, d, sem)
}

// AssessContext implements ContextAssessor.
func (a ReIdentification) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return assessGroups(ctx, a, d, sem)
}

// Rescore implements IncrementalAssessor.
func (a ReIdentification) Rescore(ctx context.Context, idx *mdb.GroupIndex, dirty []int, prev []float64) ([]float64, error) {
	return rescoreGroups(ctx, a, idx, dirty, prev)
}
