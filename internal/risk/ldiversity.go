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

// Assess implements Assessor.
func (a LDiversity) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return a.AssessContext(context.Background(), d, sem)
}

// AssessContext implements ContextAssessor: the per-tuple compatibility scan
// (quadratic in the null-bearing case) polls ctx on its outer row loop.
func (a LDiversity) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	if a.L < 2 {
		return nil, fmt.Errorf("risk: l-diversity needs L >= 2, got %d", a.L)
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
		// Default grouping: all quasi-identifiers except the sensitive
		// attribute itself, which commonly is one of them.
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

	// Distinct sensitive values per tuple's group. Groups under
	// maybe-match do not partition the dataset, so diversity is computed
	// per tuple over its compatible rows; the common no-null case falls
	// back to one pass per exact group.
	out := make([]float64, len(d.Rows))
	hasNull := false
	for _, r := range d.Rows {
		for _, i := range idx {
			if r.Values[i].IsNull() {
				hasNull = true
				break
			}
		}
		if hasNull {
			break
		}
	}

	diversity := func(row int) int {
		seen := make(map[string]bool)
		anyNull := false
		for _, r2 := range d.Rows {
			if !mdb.CompatibleTuple(d.Rows[row].Values, r2.Values, idx, sem) {
				continue
			}
			v := r2.Values[sens]
			if v.IsNull() {
				anyNull = true
				continue
			}
			seen[v.Constant()] = true
		}
		n := len(seen)
		if anyNull {
			// A suppressed sensitive value could be anything: it adds
			// at most one further distinct value.
			n++
		}
		return n
	}

	if hasNull || sem == mdb.StandardNulls {
		// Per-tuple scan; null-bearing datasets are small by the time
		// they matter (only anonymized tuples carry nulls). Each step is
		// a full-dataset compatibility pass, so poll ctx on every row.
		for row := range d.Rows {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("risk: %s cancelled at row %d: %w", a.Name(), row, err)
			}
			if diversity(row) < a.L {
				out[row] = 1
			}
		}
		return out, nil
	}

	// Fast path: exact groups partition the dataset.
	type groupStat struct {
		distinct map[string]bool
		anyNull  bool
		rows     []int
	}
	groups := make(map[string]*groupStat)
	for row, r := range d.Rows {
		if err := pollCtx(ctx, row, a); err != nil {
			return nil, err
		}
		key := ""
		for _, i := range idx {
			v := r.Values[i].Constant()
			key += fmt.Sprintf("%d:%s", len(v), v)
		}
		g, ok := groups[key]
		if !ok {
			g = &groupStat{distinct: make(map[string]bool)}
			groups[key] = g
		}
		g.rows = append(g.rows, row)
		if v := r.Values[sens]; v.IsNull() {
			g.anyNull = true
		} else {
			g.distinct[v.Constant()] = true
		}
	}
	for _, g := range groups {
		n := len(g.distinct)
		if g.anyNull {
			// A suppressed sensitive value could be anything distinct.
			n++
		}
		if n < a.L {
			for _, row := range g.rows {
				out[row] = 1
			}
		}
	}
	return out, nil
}
