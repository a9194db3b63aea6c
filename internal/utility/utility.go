// Package utility quantifies how much statistical value an anonymized
// microdata DB retains — the paper's desideratum (v): anonymization should
// remove the minimum amount of information needed for confidentiality while
// preserving the statistical soundness of the data. It compares an
// anonymized dataset against its original along three axes: how many values
// were masked per attribute, how far each attribute's marginal distribution
// drifted, and how the aggregation-group structure changed.
package utility

import (
	"fmt"
	"io"
	"sort"

	"vadasa/internal/mdb"
)

// AttributeReport measures the damage to one quasi-identifier.
type AttributeReport struct {
	Name string
	// Suppressed counts values replaced by labelled nulls.
	Suppressed int
	// Recoded counts values changed to a different constant (global
	// recoding to a coarser level).
	Recoded int
	// TotalVariation is the total-variation distance between the
	// attribute's marginal distribution before and after (nulls excluded,
	// recoded values counted at their new level): 0 = identical,
	// 1 = disjoint.
	TotalVariation float64
}

// Report is the utility comparison of an anonymized dataset against its
// original.
type Report struct {
	Rows int
	// Attributes, in schema order (quasi-identifiers only).
	Attributes []AttributeReport
	// SuppressionRate is the fraction of quasi-identifier cells masked.
	SuppressionRate float64
	// MeanGroupSizeBefore/After describe the aggregation-group structure:
	// anonymization grows groups (that is the point), and the growth
	// factor tells an analyst how much resolution was traded away.
	MeanGroupSizeBefore, MeanGroupSizeAfter float64
	// MinGroupSizeAfter is the smallest maybe-match group in the
	// anonymized data — the achieved anonymity level.
	MinGroupSizeAfter int
}

// Compare computes the utility report. The datasets must have the same
// schema and row count, with rows aligned by position (the anonymization
// cycle preserves order).
func Compare(before, after *mdb.Dataset) (*Report, error) {
	if len(before.Attrs) != len(after.Attrs) {
		return nil, fmt.Errorf("utility: schemas differ: %d vs %d attributes",
			len(before.Attrs), len(after.Attrs))
	}
	for i := range before.Attrs {
		if before.Attrs[i].Name != after.Attrs[i].Name {
			return nil, fmt.Errorf("utility: attribute %d is %q vs %q",
				i, before.Attrs[i].Name, after.Attrs[i].Name)
		}
	}
	if len(before.Rows) != len(after.Rows) {
		return nil, fmt.Errorf("utility: row counts differ: %d vs %d",
			len(before.Rows), len(after.Rows))
	}
	qi := before.QuasiIdentifiers()
	if len(qi) == 0 {
		return nil, fmt.Errorf("utility: dataset %q has no quasi-identifiers", before.Name)
	}

	rep := &Report{Rows: len(before.Rows)}
	totalCells := len(before.Rows) * len(qi)
	totalSuppressed := 0
	for _, a := range qi {
		ar := AttributeReport{Name: before.Attrs[a].Name}
		beforeCounts := make(map[string]float64)
		afterCounts := make(map[string]float64)
		beforeN, afterN := 0, 0
		for r := range before.Rows {
			bv := before.Rows[r].Values[a]
			av := after.Rows[r].Values[a]
			if !bv.IsNull() {
				beforeCounts[bv.Constant()]++
				beforeN++
			}
			switch {
			case av.IsNull():
				if !bv.IsNull() {
					ar.Suppressed++
				}
			default:
				afterCounts[av.Constant()]++
				afterN++
				if !bv.IsNull() && av.Constant() != bv.Constant() {
					ar.Recoded++
				}
			}
		}
		ar.TotalVariation = totalVariation(beforeCounts, beforeN, afterCounts, afterN)
		totalSuppressed += ar.Suppressed
		rep.Attributes = append(rep.Attributes, ar)
	}
	if totalCells > 0 {
		rep.SuppressionRate = float64(totalSuppressed) / float64(totalCells)
	}

	// One grouping per dataset: the mean and the minimum of the anonymized
	// data come from the same frequency vector.
	rep.MeanGroupSizeBefore, _ = groupSizes(before, qi)
	rep.MeanGroupSizeAfter, rep.MinGroupSizeAfter = groupSizes(after, qi)
	return rep, nil
}

func totalVariation(p map[string]float64, pn int, q map[string]float64, qn int) float64 {
	if pn == 0 || qn == 0 {
		if pn == qn {
			return 0
		}
		return 1
	}
	// Summed in key order: in map order the rounding, and so the bits of the
	// result, would change from call to call.
	keys := make([]string, 0, len(p)+len(q))
	for k := range p {
		keys = append(keys, k)
	}
	for k := range q {
		if _, ok := p[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	tv := 0.0
	for _, k := range keys {
		diff := p[k]/float64(pn) - q[k]/float64(qn)
		if diff < 0 {
			diff = -diff
		}
		tv += diff
	}
	return tv / 2
}

// groupSizes returns the mean and the minimum maybe-match group size over
// the rows of d (0, 0 for an empty dataset).
func groupSizes(d *mdb.Dataset, qi []int) (mean float64, minF int) {
	if len(d.Rows) == 0 {
		return 0, 0
	}
	total := 0
	for i, f := range mdb.Frequencies(d, qi, mdb.MaybeMatch) {
		total += f
		if i == 0 || f < minF {
			minF = f
		}
	}
	return float64(total) / float64(len(d.Rows)), minF
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "utility report over %d tuples\n", r.Rows)
	fmt.Fprintf(w, "  %-24s %10s %8s %8s\n", "attribute", "suppressed", "recoded", "TV-dist")
	attrs := append([]AttributeReport(nil), r.Attributes...)
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Suppressed > attrs[j].Suppressed })
	for _, a := range attrs {
		fmt.Fprintf(w, "  %-24s %10d %8d %8.4f\n", a.Name, a.Suppressed, a.Recoded, a.TotalVariation)
	}
	fmt.Fprintf(w, "  suppression rate: %.2f%% of quasi-identifier cells\n", 100*r.SuppressionRate)
	fmt.Fprintf(w, "  mean group size:  %.1f -> %.1f\n", r.MeanGroupSizeBefore, r.MeanGroupSizeAfter)
	fmt.Fprintf(w, "  min group size after anonymization: %d\n", r.MinGroupSizeAfter)
}
