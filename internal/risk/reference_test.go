package risk

import (
	"context"
	"fmt"
	"math"
	"math/big"

	"vadasa/internal/mdb"
)

// The reference for the individual-risk posterior E[1/F | f], F the shifted
// negative binomial of Benedetti and Franconi: the integral a·I_f, a = p/q,
// I_1 = ln(1/p), I_(k+1) = 1/k − a·I_k, carried in math/big at refPrec bits
// plus what the f−1 steps can lose to a ≥ 1, with a logarithm of its own —
// nothing it computes is rounded to float64 before the end.
// ReferencePosteriorSeries is the same mean by another road, for the two to be
// checked against each other. TestPosteriorMatchesReference holds
// posteriorMean to them.

// refPrec is the working precision of the posterior references, in bits.
const refPrec = 512

// ReferencePosterior is E[1/F | f] by the recurrence, at refPrec bits after
// the error growth of its f−1 steps.
func ReferencePosterior(f int, p float64) *big.Float {
	prec := uint(refPrec)
	if a := p / (1 - p); a > 1 {
		prec += uint(f) * uint(math.Ceil(math.Log2(a)))
	}
	bp := newRef(prec).SetFloat64(p)
	a := newRef(prec).Quo(bp, newRef(prec).Sub(newRef(prec).SetInt64(1), bp))
	in := refLog(newRef(prec).Quo(newRef(prec).SetInt64(1), bp), prec)
	for k := 1; k < f; k++ {
		step := newRef(prec).Quo(newRef(prec).SetInt64(1), newRef(prec).SetInt64(int64(k)))
		in = step.Sub(step, in.Mul(a, in))
	}
	return in.Mul(a, in)
}

// ReferencePosteriorSeries is E[1/F | f] = (p/f)·₂F₁(1, 1; f+1; q), the
// Euler transform of the posterior's series, at refPrec bits: term n+1 is term
// n times q·(n+1)/(n+f+1), summed until a term falls below 2^-(refPrec+16) of
// the first. Its cost grows like 1/p; use it where q is well below 1.
func ReferencePosteriorSeries(f int, p float64) *big.Float {
	bp := newRef(refPrec).SetFloat64(p)
	q := newRef(refPrec).Sub(newRef(refPrec).SetInt64(1), bp)
	term := newRef(refPrec).SetInt64(1)
	sum := newRef(refPrec).SetInt64(1)
	for n := int64(0); term.Sign() != 0 && term.MantExp(nil) > -(refPrec+16); n++ {
		term.Mul(term, q)
		term.Mul(term, newRef(refPrec).SetInt64(n+1))
		term.Quo(term, newRef(refPrec).SetInt64(n+int64(f)+1))
		sum.Add(sum, term)
	}
	sum.Mul(sum, bp)
	return sum.Quo(sum, newRef(refPrec).SetInt64(int64(f)))
}

func newRef(prec uint) *big.Float { return new(big.Float).SetPrec(prec) }

// refLog is ln x for x > 0 at prec bits: x = m·2^e with m in [1/2, 1), so
// ln x = 2·atanh((m−1)/(m+1)) + e·2·atanh(1/3), both arguments at most 1/3
// in magnitude.
func refLog(x *big.Float, prec uint) *big.Float {
	one := newRef(prec).SetInt64(1)
	m := newRef(prec)
	e := x.MantExp(m)
	z := newRef(prec).Quo(newRef(prec).Sub(m, one), newRef(prec).Add(m, one))
	ln2 := refAtanh2(newRef(prec).Quo(one, newRef(prec).SetInt64(3)), prec)
	ln := refAtanh2(z, prec)
	return ln.Add(ln, ln2.Mul(ln2, newRef(prec).SetInt64(int64(e))))
}

// refAtanh2 is 2·atanh(z) = 2·Σ z^(2n+1)/(2n+1) for |z| ≤ 1/3, summed until a
// term falls below 2^-(prec+16).
func refAtanh2(z *big.Float, prec uint) *big.Float {
	sum := newRef(prec).Set(z)
	z2 := newRef(prec).Mul(z, z)
	pow := newRef(prec).Set(z)
	for n := int64(1); pow.Sign() != 0 && pow.MantExp(nil) > -int(prec+16); n++ {
		pow.Mul(pow, z2)
		sum.Add(sum, newRef(prec).Quo(pow, newRef(prec).SetInt64(2*n+1)))
	}
	return sum.Mul(sum, newRef(prec).SetInt64(2))
}

// The naive reference for the two attribute-disclosure measures: the
// quadratic bodies the product ran until they became rows on the grouping
// kernel. TestAttributeDisclosureMatchesReference holds the measures to them.

// ReferenceLDiversity is LDiversity.AssessContext as it stood before the
// measure moved onto the grouping kernel, kept as written: its own
// validation, a string-keyed pass over exact groups on null-free data and,
// as soon as one null exists, a CompatibleTuple scan of the whole table per
// tuple.
func ReferenceLDiversity(ctx context.Context, a LDiversity, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
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

// ReferenceTCloseness is TCloseness.AssessContext as it stood before the
// measure moved onto the grouping kernel, kept as written: one scan of the
// whole table per tuple, the verdict shared per exact group.
func ReferenceTCloseness(ctx context.Context, a TCloseness, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
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
