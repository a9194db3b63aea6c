// Package risk implements the statistical disclosure risk estimation
// techniques of Section 4.2: re-identification-based risk (Algorithm 3),
// k-anonymity (Algorithm 4), individual risk in the Benedetti–Franconi
// Bayesian model (Algorithm 5), and SUDA minimal-sample-unique detection
// (Algorithm 6).
//
// Every assessor returns one risk score in [0,1] per tuple; the
// anonymization cycle compares the scores against the threshold T. The
// assessors honour the maybe-match semantics of labelled nulls, so risk
// drops as local suppression injects nulls.
package risk

import (
	"context"
	"fmt"
	"math"
	"slices"

	"vadasa/internal/mdb"
)

// Assessor estimates the statistical disclosure risk of every tuple.
type Assessor interface {
	// Name identifies the technique, e.g. for plug-in selection.
	Name() string
	// Assess returns one risk in [0,1] per row of d (by slice position),
	// grouping tuples by quasi-identifier values under the given null
	// semantics.
	Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error)
}

// ContextAssessor is an Assessor that can be cancelled mid-evaluation. All
// measures in this package implement it by polling ctx on their outer
// row/combination loops, so an interactive deployment can bound the
// wall-clock cost of one assessment with a deadline. Third-party assessors
// that only implement Assessor still work everywhere — they are simply not
// interruptible between calls.
type ContextAssessor interface {
	Assessor
	// AssessContext is Assess honouring ctx: it returns an error wrapping
	// ctx.Err() as soon as it observes the context done.
	AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error)
}

// AssessContext evaluates a over d with cancellation support when the
// assessor provides it, falling back to a plain (uninterruptible) Assess
// call otherwise. It is the single dispatch point the anonymization cycle
// and the framework use, so every built-in measure stays cancellable even
// when wrapped by decorators that forward the context.
func AssessContext(ctx context.Context, a Assessor, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("risk: %s: %w", a.Name(), err)
	}
	if ca, ok := a.(ContextAssessor); ok {
		return ca.AssessContext(ctx, d, sem)
	}
	return a.Assess(d, sem)
}

// ctxRowPoll is how many outer-loop iterations an assessor runs between
// context polls: frequent enough that cancellation lands within a fraction
// of a second, rare enough that the check never shows up in profiles.
const ctxRowPoll = 1024

// pollCtx reports a done context every ctxRowPoll-th iteration i (and always
// on the first), wrapping the cause for errors.Is. It takes the assessor, not
// its name: a name is formatted only once there is an error to put it in.
func pollCtx(ctx context.Context, i int, a Assessor) error {
	if i%ctxRowPoll != 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("risk: %s cancelled at row %d: %w", a.Name(), i, err)
	}
	return nil
}

// attrsOrQIs resolves an optional attribute-name restriction (the subset
// q̂ ⊆ q of Section 2.2) to attribute indexes; with no restriction all
// quasi-identifiers are used.
func attrsOrQIs(d *mdb.Dataset, names []string) ([]int, error) {
	if len(names) == 0 {
		qi := d.QuasiIdentifiers()
		if len(qi) == 0 {
			return nil, fmt.Errorf("risk: dataset %q has no quasi-identifiers", d.Name)
		}
		return qi, nil
	}
	idx := make([]int, len(names))
	for i, n := range names {
		j := d.AttrIndex(n)
		if j < 0 {
			return nil, fmt.Errorf("risk: dataset %q has no attribute %q", d.Name, n)
		}
		idx[i] = j
	}
	return idx, nil
}

// groupBy is the grouping of a measure that reads no sensitive attribute:
// the named attributes, or all quasi-identifiers.
func groupBy(d *mdb.Dataset, names []string) (mdb.Grouping, error) {
	idx, err := attrsOrQIs(d, names)
	return mdb.Grouping{Attrs: idx, Sensitive: mdb.NoSensitive}, err
}

// groupBySensitive is the grouping of an attribute-disclosure measure: the
// named attributes, none of which may be the sensitive one, or by default
// all quasi-identifiers except the sensitive attribute itself, which
// commonly is one of them.
func groupBySensitive(d *mdb.Dataset, names []string, sensitive string) (mdb.Grouping, error) {
	sens := d.AttrIndex(sensitive)
	if sens < 0 {
		return mdb.Grouping{}, fmt.Errorf("risk: dataset %q has no sensitive attribute %q", d.Name, sensitive)
	}
	idx, err := attrsOrQIs(d, names)
	if err != nil {
		return mdb.Grouping{}, err
	}
	if len(names) > 0 {
		if slices.Contains(idx, sens) {
			return mdb.Grouping{}, fmt.Errorf("risk: sensitive attribute %q cannot be a grouping attribute", sensitive)
		}
	} else if idx = slices.DeleteFunc(idx, func(i int) bool { return i == sens }); len(idx) == 0 {
		return mdb.Grouping{}, fmt.Errorf("risk: no grouping attributes remain besides the sensitive %q", sensitive)
	}
	return mdb.Grouping{Attrs: idx, Sensitive: sens}, nil
}

// checkGroupWeight refuses a weight sum no estimate can be drawn from: zero or
// negative; NaN, which fails every comparison, so a tuple scored from it would
// never exceed a threshold; or infinite, which makes f/ΣW zero.
func checkGroupWeight(g mdb.GroupInfo, rowID int) error {
	switch {
	case g.WeightSum <= 0:
		return fmt.Errorf("risk: row %d has non-positive group weight %g", rowID, g.WeightSum)
	case math.IsNaN(g.WeightSum) || math.IsInf(g.WeightSum, 1):
		return fmt.Errorf("risk: row %d has non-finite group weight %g", rowID, g.WeightSum)
	}
	return nil
}

// Probability reports whether x is one: a number — not NaN, which fails
// every comparison and so slips through a check written as "x < 0 || x > 1"
// — within [0,1]. It is the range of a risk threshold and of t-closeness's
// distance bound.
func Probability(x float64) bool { return x >= 0 && x <= 1 }

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
