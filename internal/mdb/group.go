package mdb

import "context"

// GroupInfo describes the aggregation group a row belongs to when rows are
// grouped by a set of quasi-identifiers: the group cardinality (the sample
// frequency f of the row's combination) and the sum of sampling weights over
// the group (the estimator of the population frequency).
type GroupInfo struct {
	Freq      int
	WeightSum float64
}

// ComputeGroups returns, for every row of d (by slice position), the
// frequency and weight sum of its aggregation group over the attribute
// indexes idx, under the given null semantics.
//
// Under MaybeMatch a row containing labelled nulls belongs to every group it
// is compatible with; its own frequency is the number of rows compatible
// with it (including itself), and each compatible exact group sees its
// cardinality increased — the groups no longer partition the dataset
// (Section 4.3). Under StandardNulls each labelled null is only equal to
// itself, so grouping degenerates to exact matching with null symbols as
// unique constants.
//
// It is one pass of the GroupIndex kernel over a throwaway index, run on the
// calling goroutine only: callers such as the MSU search already fan
// ComputeGroups calls out across cores themselves.
func ComputeGroups(d *Dataset, idx []int, sem Semantics) []GroupInfo {
	x := &GroupIndex{d: d, idx: idx, sem: sem, workers: 1}
	x.restructure()
	x.aggregate()
	out := make([]GroupInfo, len(d.Rows))
	if err := x.derive(context.Background(), out); err != nil {
		// Unreachable: the background context is never cancelled and the
		// kernel's chunk functions cannot fail.
		panic("mdb: ComputeGroups: " + err.Error())
	}
	return out
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
