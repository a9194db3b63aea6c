package programs

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"vadasa/internal/datalog"
	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// Twin is one row of the twin table: what the declarative side holds for one
// measure of the risk layer's table (risk.Kinds). Must a measure exist twice,
// and which copy is authoritative? The row is where that is answered.
type Twin struct {
	// Kind is the risk.Spec.Kind the row answers for. individual-risk has
	// one row per Estimator; every other kind has one row.
	Kind      string
	Estimator risk.Estimator
	// Name is the constructor Program calls, as the docs print it.
	Name string
	// Program builds the measure's declarative twin for a spec of the row
	// over q quasi-identifiers; nil when the measure has none. Every program
	// aggregates by exactly the quasi-identifier vector, so it derives a
	// tuple's riskout(I,·) from the tuple facts of I's exact group alone:
	// equal constants, or the same labelled null, cell for cell.
	// Framework.ExplainRisk chases the group only; TestTwinRiskIsGroupLocal
	// holds every program to it. Once the reasoner groups by maybe-match
	// (ROADMAP item 2) that group widens to the rows compatible with the
	// tuple, and that test is the first to fail.
	Program func(sp risk.Spec, q int) *datalog.Program
	// Diverges reports the aggregation groups on which twin and native
	// measure differ on purpose; nil when they agree on every group. On the
	// rest they agree under mdb.StandardNulls, k-anonymity exactly and the
	// weight sums to 1e-9.
	Diverges func(g mdb.GroupInfo) bool
	// Note says what that difference is and which side is the specification.
	Note string
}

// twins is the twin table. Framework.ExplainRisk, Assessor and the agreement
// tests read it; DESIGN.md "Risk layer" and README print it.
var twins = []Twin{
	{Kind: "re-identification", Name: "ReIdentification",
		Program:  func(_ risk.Spec, q int) *datalog.Program { return ReIdentification(q) },
		Diverges: func(g mdb.GroupInfo) bool { return g.WeightSum < 1 },
		Note: "the program is the plain 1/ΣW of Algorithm 3; where a group's weights sum below one " +
			"the native measure scores 1. Native is the specification: a risk is a probability"},
	{Kind: "k-anonymity", Name: "KAnonymity",
		Program: func(sp risk.Spec, q int) *datalog.Program { return KAnonymity(q, sp.K) }},
	// The first row of a kind is also the program whose derivation tree
	// explains it, whatever the estimator: F/ΣW is Algorithm 5 as printed.
	{Kind: "individual-risk", Estimator: risk.Ratio, Name: "IndividualRisk",
		Program:  func(_ risk.Spec, q int) *datalog.Program { return IndividualRisk(q) },
		Diverges: func(g mdb.GroupInfo) bool { return float64(g.Freq) >= g.WeightSum },
		Note: "the program is the plain F/ΣW of Algorithm 5; where the sample exhausts the estimated population (F ≥ ΣW) " +
			"the native measure scores 1/F. Native is the specification: a risk is a probability"},
	{Kind: "individual-risk", Estimator: risk.PosteriorSeries, Name: "IndividualRiskPosterior",
		Program:  func(_ risk.Spec, q int) *datalog.Program { return IndividualRiskPosterior(q) },
		Diverges: func(g mdb.GroupInfo) bool { return g.Freq > 1 },
		Note: "the program is the closed form for sample uniques (F = 1) and keeps F/ΣW above; " +
			"the native measure computes the posterior mean for every F (an F-step recurrence; the series where F/ΣW ≥ 1/2). " +
			"Native is the specification: the program has no iteration over F"},
	{Kind: "individual-risk", Estimator: risk.MonteCarlo},
	{Kind: "suda"},
	{Kind: "l-diversity"},
	{Kind: "t-closeness"},
}

// Twins returns the twin table, in risk.Kinds order.
func Twins() []Twin { return twins }

// ErrNoTwin reports a measure with no declarative twin: a row of the table
// without a program, or an assessor that is not a built-in measure at all.
var ErrNoTwin = errors.New("the measure has no declarative twin")

// ErrRestricted reports a measure restricted to a subset of the
// quasi-identifiers; the programs are generated over all of them.
var ErrRestricted = errors.New("the declarative twin covers all quasi-identifiers, not a subset")

// TwinOf resolves a native measure to its row's program over d's
// quasi-identifiers. With explain set it is the program whose derivation
// tree explains the measure — the first row of the measure's kind.
func TwinOf(m risk.Assessor, d *mdb.Dataset, explain bool) (*datalog.Program, error) {
	sp, ok := risk.SpecOf(m)
	if !ok {
		return nil, ErrNoTwin
	}
	for _, t := range twins {
		if t.Kind != sp.Kind || (!explain && t.Estimator != sp.Estimator) {
			continue
		}
		if t.Program == nil {
			break
		}
		qi := d.QuasiIdentifiers()
		if ia, ok := m.(risk.IncrementalAssessor); ok {
			if by, err := ia.Grouping(d); err != nil || !slices.Equal(by.Attrs, qi) {
				return nil, ErrRestricted
			}
		}
		return t.Program(sp, len(qi)), nil
	}
	return nil, ErrNoTwin
}

// EvalOptions assembles the engine options for one evaluation under ctx: the
// work budget (0 selects the engine default) plus — when ctx carries a
// resource governor — a per-evaluation child scope whose byte charges roll up
// to the request or job above it. The returned cleanup must run when the
// evaluation ends; it releases the whole evaluation footprint.
func EvalOptions(ctx context.Context, maxWork int64) (*datalog.Options, func()) {
	g := govern.From(ctx)
	if maxWork <= 0 && g == nil {
		return nil, func() {}
	}
	opt := &datalog.Options{MaxWork: max(maxWork, 0)}
	if g == nil {
		return opt, func() {}
	}
	eg := g.Child("evaluation", govern.Limits{})
	opt.Governor = eg
	return opt, eg.Close
}

// Assessor scores a dataset by reasoning: one chase of Measure's declarative
// twin over the dataset's tuple facts per assessment, the derived riskout
// facts read back as one score per row position. It plugs the reasoner into
// every seat a risk.Assessor fills, the anonymization cycle first of all. A
// score is what the program derives — where the table records a divergence,
// the twin's value, not the native one.
type Assessor struct {
	// Measure is the native measure whose twin is run (a row of the twin
	// table with a program).
	Measure risk.Assessor
}

// Name implements risk.Assessor.
func (a Assessor) Name() string { return "declarative " + a.Measure.Name() }

// Assess implements risk.Assessor.
func (a Assessor) Assess(d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	return a.AssessContext(context.Background(), d, sem)
}

// AssessContext implements risk.ContextAssessor: the chase runs under ctx
// and, when ctx carries a resource governor, inside an evaluation scope of it.
func (a Assessor) AssessContext(ctx context.Context, d *mdb.Dataset, sem mdb.Semantics) ([]float64, error) {
	if sem != mdb.StandardNulls {
		return nil, fmt.Errorf("programs: %s: cannot assess under %s semantics: the engine's labelled nulls are Skolem constants until it groups by maybe-match (PAPER.md §4.3)",
			a.Name(), sem)
	}
	prog, err := TwinOf(a.Measure, d, false)
	if err != nil {
		return nil, fmt.Errorf("programs: %s: %w", a.Name(), err)
	}
	opt, done := EvalOptions(ctx, 0)
	defer done()
	edb := datalog.NewDatabase()
	TupleFacts(edb, d)
	res, err := datalog.RunContext(ctx, prog, edb, opt)
	if err != nil {
		return nil, fmt.Errorf("programs: %s: %w", a.Name(), err)
	}
	byID := DecodeRisk(res)
	out := make([]float64, len(d.Rows))
	for i, r := range d.Rows {
		score, ok := byID[r.ID]
		if !ok {
			return nil, fmt.Errorf("programs: %s: tuple %d derives no riskout", a.Name(), r.ID)
		}
		out[i] = score
	}
	return out, nil
}
