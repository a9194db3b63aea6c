package mdb

import (
	"context"
	"fmt"
)

// GroupInfo describes the aggregation group a row belongs to when rows are
// grouped by a set of quasi-identifiers: the group cardinality (the sample
// frequency f of the row's combination) and the sum of sampling weights over
// the group (the estimator of the population frequency). When the grouping
// names a sensitive attribute it also carries what the attribute-disclosure
// measures read off the group's sensitive values; those fields are zero
// otherwise. It is a comparable value of scalars: Commit's dirty set is
// "the info changed", and the shard wire ships it field by field.
type GroupInfo struct {
	Freq      int
	WeightSum float64
	// Distinct counts the distinct sensitive values among the rows of the
	// group, all suppressed ones together counting as one more.
	Distinct int32
	// SensCount is n, the group's rows holding a constant sensitive value,
	// and SensTotal N, the whole table's.
	SensCount, SensTotal int32
	// SensDist is D = Σ_k |c_k·N − C_k·n| over the sensitive values k, c_k
	// and C_k being the group's and the table's count of k: the
	// total-variation distance between the two distributions, times 2·n·N.
	SensDist int64
}

// differs is *g != *o, spelled field by field: Commit asks it of every row,
// and the comparison the compiler generates for a struct this size is a call.
func (g *GroupInfo) differs(o *GroupInfo) bool {
	return g.Freq != o.Freq || g.WeightSum != o.WeightSum || g.SensDist != o.SensDist ||
		g.Distinct != o.Distinct || g.SensCount != o.SensCount || g.SensTotal != o.SensTotal
}

// NoSensitive is Grouping.Sensitive of a grouping without sensitive column.
const NoSensitive = -1

// Grouping names what a group index is built over: the attribute indexes
// rows are grouped by and, optionally, one sensitive attribute whose values
// are histogrammed per group (NoSensitive: none).
type Grouping struct {
	Attrs     []int
	Sensitive int
}

// ComputeInfos returns, for every row of d (by slice position), the
// GroupInfo of its aggregation group over by, under the given null
// semantics.
//
// Under MaybeMatch a row containing labelled nulls belongs to every group it
// is compatible with; its own frequency is the number of rows compatible
// with it (including itself), and each compatible exact group sees its
// cardinality increased — the groups no longer partition the dataset
// (Section 4.3). Under StandardNulls each labelled null is only equal to
// itself, so grouping degenerates to exact matching with null symbols as
// unique constants. A null sensitive value is "suppressed" under both.
//
// It is one pass of the GroupIndex kernel over a throwaway index, run on the
// calling goroutine only, as CodeTable.Group is: callers grouping many
// attribute sets fan those out across cores themselves.
func ComputeInfos(d *Dataset, by Grouping, sem Semantics) []GroupInfo {
	return by.table(d, sem).group()
}

// BuildIndex constructs the index over by under the given semantics, to be
// kept alive and maintained under mutations.
func BuildIndex(ctx context.Context, d *Dataset, by Grouping, sem Semantics) (*GroupIndex, error) {
	if len(by.Attrs) == 0 {
		return nil, fmt.Errorf("mdb: group index needs at least one attribute")
	}
	x := &GroupIndex{codeTable: by.table(d, sem)}
	if err := x.build(ctx); err != nil {
		return nil, fmt.Errorf("mdb: building group index: %w", err)
	}
	return x, nil
}

// ComputeGroups is ComputeInfos over the attribute indexes idx alone.
func ComputeGroups(d *Dataset, idx []int, sem Semantics) []GroupInfo {
	return ComputeInfos(d, Grouping{Attrs: idx, Sensitive: NoSensitive}, sem)
}

// BuildGroupIndex is BuildIndex over the attribute indexes idx alone.
func BuildGroupIndex(ctx context.Context, d *Dataset, idx []int, sem Semantics) (*GroupIndex, error) {
	return BuildIndex(ctx, d, Grouping{Attrs: idx, Sensitive: NoSensitive}, sem)
}

// Frequencies is shorthand for ComputeGroups when only the sample
// frequencies are needed.
func Frequencies(d *Dataset, idx []int, sem Semantics) []int {
	gs := ComputeGroups(d, idx, sem)
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = g.Freq
	}
	return out
}
