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

// Assess implements Assessor.
func (a TCloseness) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return a.AssessContext(context.Background(), d, sem)
}

// AssessContext implements ContextAssessor: ctx is polled on the outer
// per-tuple loop, whose group-distribution scan dominates the cost.
func (a TCloseness) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	if a.T <= 0 || a.T >= 1 {
		return nil, fmt.Errorf("risk: t-closeness needs T in (0,1), got %g", a.T)
	}
	sens := d.AttrIndex(a.Sensitive)
	if sens < 0 {
		return nil, fmt.Errorf("risk: dataset %q has no sensitive attribute %q", d.Name, a.Sensitive)
	}
	idx, err := attrsOrQIs(d, a.Attrs)
	if err != nil {
		return nil, err
	}
	if len(a.Attrs) == 0 {
		filtered := idx[:0]
		for _, i := range idx {
			if i != sens {
				filtered = append(filtered, i)
			}
		}
		idx = filtered
		if len(idx) == 0 {
			return nil, fmt.Errorf("risk: no grouping attributes remain besides the sensitive %q", a.Sensitive)
		}
	} else {
		for _, i := range idx {
			if i == sens {
				return nil, fmt.Errorf("risk: sensitive attribute %q cannot be a grouping attribute", a.Sensitive)
			}
		}
	}

	// Global distribution of the sensitive attribute (nulls excluded).
	global := make(map[string]int)
	globalN := 0
	for _, r := range d.Rows {
		if v := r.Values[sens]; !v.IsNull() {
			global[v.Constant()]++
			globalN++
		}
	}
	if globalN == 0 {
		return nil, fmt.Errorf("risk: sensitive attribute %q has no constant values", a.Sensitive)
	}

	out := make([]float64, len(d.Rows))
	// Per tuple, gather the sensitive distribution of its maybe-match
	// group. Group membership under maybe-match is per tuple; the common
	// null-free case shares the verdict per exact group.
	cache := make(map[string]bool)
	for row, r := range d.Rows {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("risk: %s cancelled at row %d: %w", a.Name(), row, err)
		}
		key, exact := exactKey(r, idx)
		if exact {
			if over, ok := cache[key]; ok {
				if over {
					out[row] = 1
				}
				continue
			}
		}
		groupCounts := make(map[string]int)
		groupN := 0
		for _, r2 := range d.Rows {
			if !mdb.CompatibleTuple(r.Values, r2.Values, idx, sem) {
				continue
			}
			if v := r2.Values[sens]; !v.IsNull() {
				groupCounts[v.Constant()]++
				groupN++
			}
		}
		// The distance ½·Σ|c/n − C/N| is compared to T scaled by 2·n·N, so
		// the sum is over integers: exact, and the same in whatever order
		// the maps are walked. A group with no sensitive value is at
		// distance 1.
		over := 1 > a.T
		if groupN > 0 {
			sum := 0
			for k, c := range groupCounts {
				sum += abs(c*globalN - global[k]*groupN)
			}
			for k, c := range global {
				if _, ok := groupCounts[k]; !ok {
					sum += c * groupN
				}
			}
			over = float64(sum) > 2*a.T*float64(groupN)*float64(globalN)
		}
		if exact {
			cache[key] = over
		}
		if over {
			out[row] = 1
		}
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// exactKey returns a grouping key when the row has no nulls on idx.
func exactKey(r *mdb.Row, idx []int) (string, bool) {
	key := ""
	for _, i := range idx {
		v := r.Values[i]
		if v.IsNull() {
			return "", false
		}
		s := v.Constant()
		key += fmt.Sprintf("%d:%s", len(s), s)
	}
	return key, true
}
