package vadasa

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"net/url"
	"slices"
	"sort"
	"strings"

	"vadasa/internal/anon"
	"vadasa/internal/categorize"
	"vadasa/internal/cluster"
	"vadasa/internal/datalog"
	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/risk"
)

// Framework is the Vada-SA session object: it owns the metadata dictionary,
// the experience base and similarity functions for attribute categorization,
// the domain-hierarchy knowledge base, the company-ownership graph, and the
// plug-in registry of risk measures. All of it together is the enterprise
// Knowledge Base of Section 4; datasets registered with the framework go
// through categorization exactly as new microdata DBs do at the Research
// Data Center.
type Framework struct {
	dict       *mdb.Dictionary
	experience []categorize.Entry
	sims       []categorize.Similarity
	hier       *hierarchy.Hierarchy
	ownership  *cluster.Graph
	measures   map[string]func() RiskMeasure
	// maxWork caps the reasoning engine's fact-match budget for calls made
	// on behalf of this framework (ExplainRisk and friends); zero selects
	// the engine default. See SetReasonerBudget.
	maxWork int64
}

// New returns a framework preloaded with the default experience base, the
// standard similarity functions, the Italian-geography hierarchy, and the
// off-the-shelf risk measures of Section 4.2 registered under their names.
func New() *Framework {
	f := &Framework{
		dict:       mdb.NewDictionary(),
		experience: categorize.DefaultExperience(),
		sims: []categorize.Similarity{
			categorize.Exact{},
			categorize.Normalized{},
			categorize.TokenOverlap{Min: 0.5},
		},
		hier:      hierarchy.ItalianGeography(),
		ownership: cluster.NewGraph(),
		measures:  make(map[string]func() RiskMeasure),
	}
	// Every row of the risk layer's measure table that its default
	// parameters fully describe (l-diversity and t-closeness need a sensitive
	// attribute named) is registered under its kind.
	for _, kind := range risk.Kinds() {
		sp, _ := risk.ParseSpec(url.Values{"measure": {kind}}.Get) // the defaults always parse
		if m, err := sp.Measure(); err == nil {
			f.RegisterMeasure(kind, func() RiskMeasure { return m })
		}
	}
	return f
}

// Dictionary exposes the metadata dictionary.
func (f *Framework) Dictionary() *Dictionary { return f.dict }

// Hierarchy exposes the domain-hierarchy knowledge base (extend it with
// business knowledge before anonymizing with global recoding).
func (f *Framework) Hierarchy() *Hierarchy { return f.hier }

// Ownership exposes the company-ownership graph used by cluster risk.
func (f *Framework) Ownership() *OwnershipGraph { return f.ownership }

// AddExperience extends the categorization experience base — the expert
// knowledge of Algorithm 1.
func (f *Framework) AddExperience(entries ...ExperienceEntry) {
	f.experience = append(f.experience, entries...)
}

// SetSimilarities replaces the pluggable similarity functions.
func (f *Framework) SetSimilarities(sims ...Similarity) {
	f.sims = append([]categorize.Similarity(nil), sims...)
}

// RegisterMeasure installs a named risk-measure factory — the plug-in
// mechanism of Section 4.2 that lets business users select implementations
// at runtime.
func (f *Framework) RegisterMeasure(name string, factory func() RiskMeasure) {
	f.measures[name] = factory
}

// Measure instantiates a registered risk measure by name.
func (f *Framework) Measure(name string) (RiskMeasure, error) {
	factory, ok := f.measures[name]
	if !ok {
		return nil, fmt.Errorf("vadasa: unknown risk measure %q (have %v)", name, f.MeasureNames())
	}
	return factory(), nil
}

// MeasureNames lists the registered risk measures, sorted.
func (f *Framework) MeasureNames() []string {
	out := make([]string, 0, len(f.measures))
	for n := range f.measures {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Register adds a microdata DB to the metadata dictionary, runs attribute
// categorization (Algorithm 1) over its attribute names, and applies the
// inferred categories to both the dictionary and the dataset. Attributes
// already categorized on the dataset act as additional experience; conflicts
// and unknowns are returned for human inspection and leave the dataset's
// declared categories untouched.
func (f *Framework) Register(d *Dataset) (*CategorizationResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := f.dict.RegisterDataset(d); err != nil {
		return nil, err
	}
	names := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		names[i] = a.Name
	}
	res := f.categorizer().Categorize(names)
	for attr, cat := range res.Categories {
		if err := f.dict.SetCategory(d.Name, attr, cat); err != nil {
			return nil, err
		}
	}
	if err := f.dict.Apply(d); err != nil {
		return nil, err
	}
	return res, nil
}

func (f *Framework) categorizer() *categorize.Categorizer {
	return &categorize.Categorizer{
		Experience:  f.experience,
		Sims:        f.sims,
		Consolidate: true,
	}
}

// Schema turns the column names of an incoming file into a categorized
// schema, the one inference every intake path (CLI, daemon, stream creation)
// shares. A name in overrides takes the category given there; every other
// name goes through attribute categorization (Algorithm 1) and stays
// non-identifying where that leaves it unknown or in conflict. The report
// covers the inferred names only. Unlike Register, nothing is recorded in the
// dictionary.
func (f *Framework) Schema(names []string, overrides map[string]Category) ([]Attribute, *CategorizationResult) {
	attrs := make([]Attribute, len(names))
	var infer []string
	for i, n := range names {
		attrs[i] = Attribute{Name: n, Category: NonIdentifying}
		if c, ok := overrides[n]; ok {
			attrs[i].Category = c
		} else {
			infer = append(infer, n)
		}
	}
	report := f.categorizer().Categorize(infer) // never holds an overridden name
	for i := range attrs {
		if c, ok := report.Categories[attrs[i].Name]; ok {
			attrs[i].Category = c
		}
	}
	return attrs, report
}

// SetReasonerBudget caps the reasoning engine's work budget (fact-match
// attempts) for subsequent reasoning-backed calls such as ExplainRisk — the
// per-request knob an operational deployment exposes so one expensive
// explanation cannot monopolize the service. Zero (the default) restores
// the engine's built-in budget.
func (f *Framework) SetReasonerBudget(maxWork int64) { f.maxWork = maxWork }

// ReasonerBudget returns the currently configured engine work budget
// (0 = engine default).
func (f *Framework) ReasonerBudget() int64 { return f.maxWork }

// reasonerOptions assembles the engine options for one evaluation made on
// behalf of this framework: its work budget under programs.EvalOptions'
// governor scope. The returned cleanup must run when the evaluation ends.
func (f *Framework) reasonerOptions(ctx context.Context) (*datalog.Options, func()) {
	return programs.EvalOptions(ctx, f.maxWork)
}

// AssessRisk estimates per-tuple disclosure risk under maybe-match
// semantics. Cluster propagation is applied automatically when the
// ownership graph is non-empty (the enhanced cycle of Algorithm 9).
func (f *Framework) AssessRisk(d *Dataset, measure RiskMeasure) ([]float64, error) {
	return f.AssessRiskContext(context.Background(), d, measure)
}

// AssessRiskContext is AssessRisk honouring ctx: the built-in measures poll
// the context on their outer row/combination loops, so a deadline or a
// client disconnect stops the evaluation promptly. The returned error wraps
// ctx.Err() when cancellation was the cause.
func (f *Framework) AssessRiskContext(ctx context.Context, d *Dataset, measure RiskMeasure) ([]float64, error) {
	return risk.AssessContext(ctx, f.assessor(measure), d, MaybeMatch)
}

func (f *Framework) assessor(measure RiskMeasure) RiskMeasure {
	if f.ownership.EdgeCount() > 0 {
		return ClusterRisk{Base: measure, Graph: f.ownership}
	}
	return measure
}

// ExplainRisk explains why a tuple carries its disclosure risk. For the
// frequency-based measures (re-identification, k-anonymity, individual risk)
// the explanation is the derivation tree of the corresponding declarative
// program evaluated by the reasoning engine — the standard-entailment
// explainability the paper guarantees; for SUDA it lists the tuple's minimal
// sample uniques. The program is chased over the tuple's exact group alone —
// the rows whose quasi-identifier cells equal the tuple's, labelled nulls by
// id — which is all its riskout fact depends on (programs.Twin); the SUDA
// explanation still searches the whole dataset.
//
// Attribute-restricted measures (Attrs set) are not supported: the
// explanation always covers all quasi-identifiers.
func (f *Framework) ExplainRisk(d *Dataset, measure RiskMeasure, rowID int) (string, error) {
	return f.ExplainRiskContext(context.Background(), d, measure, rowID)
}

// ExplainRiskContext is ExplainRisk honouring ctx: the reasoning engine
// polls the context at fixpoint-round boundaries and inside its join loops,
// and the SUDA combination search polls it per combination, so an
// interactive explanation can be abandoned without burning CPU.
func (f *Framework) ExplainRiskContext(ctx context.Context, d *Dataset, measure RiskMeasure, rowID int) (string, error) {
	qi := d.QuasiIdentifiers()
	if len(qi) == 0 {
		return "", fmt.Errorf("vadasa: dataset %q has no quasi-identifiers", d.Name)
	}
	var keys []*mdb.Row // every row carrying rowID: ids need not be unique
	for _, r := range d.Rows {
		if r.ID == rowID {
			keys = append(keys, r)
		}
	}
	if len(keys) == 0 {
		return "", fmt.Errorf("vadasa: dataset %q has no tuple with id %d", d.Name, rowID)
	}

	if !ExplainReadsGroup(measure) {
		return f.explainSUDA(ctx, d, measure.(SUDA), rowID)
	}
	// Which program explains a measure is a row of the twin table.
	prog, err := programs.TwinOf(measure, d, true)
	switch {
	case errors.Is(err, programs.ErrRestricted):
		return "", fmt.Errorf("vadasa: ExplainRisk does not support attribute-restricted measures")
	case err != nil:
		return "", fmt.Errorf("vadasa: no explanation support for measure %q", measure.Name())
	}

	// The twin's riskout(I,·) depends on I's exact group alone, so only the
	// rows sharing a quasi-identifier vector with one carrying rowID are
	// loaded, in dataset order: the same contributors fold in the same order.
	// A dataset that is that group already (ParseCSVGroup's) is loaded as it is.
	outside := func(r *mdb.Row) bool {
		return !slices.ContainsFunc(keys, func(k *mdb.Row) bool {
			for _, i := range qi {
				if r.Values[i] != k.Values[i] {
					return false
				}
			}
			return true
		})
	}
	group := d
	if slices.ContainsFunc(d.Rows, outside) {
		group = d.Select(func(r *mdb.Row) bool { return !outside(r) })
	}
	edb := datalog.NewDatabase()
	programs.TupleFacts(edb, group)
	opt, done := f.reasonerOptions(ctx)
	defer done()
	res, err := datalog.RunContext(ctx, prog, edb, opt)
	if err != nil {
		return "", fmt.Errorf("vadasa: explaining risk: %w", err)
	}
	// The tuple's riskout fact that sorts first, as Facts would list it.
	rows := res.DB().Rows("riskout")
	best := -1
	for i := 0; i < rows.Len(); i++ {
		if f := rows.Row(i); int(f.At(0).NumVal()) == rowID && (best < 0 || f.Compare(rows.Row(best)) < 0) {
			best = i
		}
	}
	if best < 0 {
		return "", fmt.Errorf("vadasa: no risk derived for tuple %d", rowID)
	}
	return res.Explain("riskout", rows.Row(best).Tuple()...)
}

// ExplainReadsGroup reports whether ExplainRisk explains a tuple's risk
// under measure from the tuple's exact group alone, so a caller may read
// just that group (ParseCSVGroup): SUDA's explanation searches the whole
// table, every other measure's twin reads its group.
func ExplainReadsGroup(measure RiskMeasure) bool {
	_, suda := measure.(SUDA)
	return !suda
}

func (f *Framework) explainSUDA(ctx context.Context, d *Dataset, m SUDA, rowID int) (string, error) {
	if len(m.Attrs) > 0 {
		return "", fmt.Errorf("vadasa: ExplainRisk does not support attribute-restricted measures")
	}
	maxK, err := m.ResolveMaxK()
	if err != nil {
		return "", fmt.Errorf("vadasa: explaining risk: %w", err)
	}
	qi := d.QuasiIdentifiers()
	msus, err := risk.MSUsContext(ctx, d, qi, maxK, mdb.MaybeMatch)
	if err != nil {
		return "", fmt.Errorf("vadasa: explaining risk: %w", err)
	}
	rowIdx := -1
	for i, r := range d.Rows {
		if r.ID == rowID {
			rowIdx = i
			break
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SUDA on tuple %d (MSU size threshold %d, combinations up to size %d):\n",
		rowID, m.Threshold, maxK)
	ms := msus[rowIdx]
	if len(ms) == 0 {
		b.WriteString("  no minimal sample uniques: the tuple is not dangerous\n")
		return b.String(), nil
	}
	dangerous := false
	for _, mask := range ms {
		var names []string
		for i := range qi {
			if mask&(1<<uint(i)) != 0 {
				names = append(names, d.Attrs[qi[i]].Name)
			}
		}
		size := bits.OnesCount32(mask)
		verdict := "safe (size >= threshold)"
		if size < m.Threshold {
			verdict = "dangerous (size < threshold)"
			dangerous = true
		}
		fmt.Fprintf(&b, "  minimal sample unique {%s}: size %d — %s\n",
			strings.Join(names, ", "), size, verdict)
	}
	if dangerous {
		fmt.Fprintf(&b, "  => risk 1: too few attributes disclose this tuple\n")
	} else {
		fmt.Fprintf(&b, "  => risk 0: every minimal sample unique needs %d+ attributes\n", m.Threshold)
	}
	return b.String(), nil
}

// CycleOptions parameterizes Anonymize. Zero values select the paper's
// defaults: local suppression with the most-selective-first attribute
// choice, the less-significant-first tuple order, maybe-match semantics.
type CycleOptions struct {
	// Measure estimates tuple risk (required).
	Measure RiskMeasure
	// Threshold is T of Algorithm 2.
	Threshold float64
	// Method overrides the anonymization method.
	Method Anonymizer
	// Semantics overrides the labelled-null semantics (default MaybeMatch).
	Semantics Semantics
	// Order overrides the risky-tuple processing order.
	Order TupleOrder
	// UseRecoding prepends hierarchy-based global recoding to the default
	// suppression method.
	UseRecoding bool
	// Checkpoint, when set, receives every committed cycle iteration before
	// the next one may start — the hook a durable job manager journals
	// through. An error from it aborts the cycle.
	Checkpoint CheckpointFunc
}

// Anonymize runs the anonymization cycle of Algorithm 2 on a copy of d and
// returns the anonymized dataset together with the full decision log.
func (f *Framework) Anonymize(d *Dataset, opts CycleOptions) (*CycleResult, error) {
	return f.AnonymizeContext(context.Background(), d, opts)
}

// AnonymizeContext is Anonymize honouring ctx: the cycle checks the context
// at every iteration boundary and between per-tuple anonymization steps, so
// a request deadline or client disconnect stops the work within one
// risk-evaluate/anonymize round. The partial result is discarded — the
// input dataset is never modified either way.
func (f *Framework) AnonymizeContext(ctx context.Context, d *Dataset, opts CycleOptions) (*CycleResult, error) {
	return f.ResumeAnonymizeContext(ctx, d, opts, nil)
}

// ResumeAnonymizeContext continues a cycle interrupted mid-run: the
// checkpoints — committed iterations journaled through CycleOptions.Checkpoint
// by a previous run — are replayed onto a fresh clone of d, and the cycle
// proceeds from the first uncommitted iteration. The options must match the
// interrupted run's exactly; the cycle is deterministic, so the combined
// result is identical to an uninterrupted run. Nil checkpoints make this
// AnonymizeContext.
func (f *Framework) ResumeAnonymizeContext(ctx context.Context, d *Dataset, opts CycleOptions, checkpoints []CycleCheckpoint) (*CycleResult, error) {
	cfg, err := f.cycleConfig(opts)
	if err != nil {
		return nil, err
	}
	return anon.ResumeContext(ctx, d, cfg, checkpoints)
}

// AnonymizeInPlace is ResumeAnonymizeContext on d itself, for a caller that
// gives d up, as the daemon does with the table it parsed from a request: the
// cycle anonymizes d and returns it as CycleResult.Dataset, and an error
// leaves d in whatever state the cycle reached.
func (f *Framework) AnonymizeInPlace(ctx context.Context, d *Dataset, opts CycleOptions, checkpoints []CycleCheckpoint) (*CycleResult, error) {
	cfg, err := f.cycleConfig(opts)
	if err != nil {
		return nil, err
	}
	return anon.ResumeInPlace(ctx, d, cfg, checkpoints)
}

// cycleConfig translates the public options into the cycle's configuration.
func (f *Framework) cycleConfig(opts CycleOptions) (anon.Config, error) {
	if opts.Measure == nil {
		return anon.Config{}, fmt.Errorf("vadasa: CycleOptions.Measure is required")
	}
	method := opts.Method
	if method == nil {
		suppress := LocalSuppression{Choice: AttrMostSelective}
		if opts.UseRecoding {
			method = Composite{
				GlobalRecoding{KB: f.hier, Choice: AttrMostSelective},
				suppress,
			}
		} else {
			method = suppress
		}
	}
	return anon.Config{
		Assessor:   f.assessor(opts.Measure),
		Threshold:  opts.Threshold,
		Anonymizer: method,
		Semantics:  opts.Semantics,
		Order:      opts.Order,
		Checkpoint: opts.Checkpoint,
	}, nil
}

// MeasureSummary pairs a registered measure's name with its risk summary.
type MeasureSummary struct {
	Name    string
	Summary RiskSummary
	Err     error
}

// AssessAllRegistered runs every registered risk measure over the dataset
// and summarizes each against the threshold — the multi-angle confidentiality
// scorecard an analyst reviews before deciding how to anonymize. Measures
// that cannot run on this dataset report their error instead of aborting the
// scorecard.
func (f *Framework) AssessAllRegistered(d *Dataset, threshold float64) []MeasureSummary {
	return f.AssessAllRegisteredContext(context.Background(), d, threshold)
}

// AssessAllRegisteredContext is AssessAllRegistered honouring ctx. A
// cancelled context aborts the scorecard: the measure being evaluated stops
// mid-loop and the remaining measures report the cancellation error instead
// of running.
func (f *Framework) AssessAllRegisteredContext(ctx context.Context, d *Dataset, threshold float64) []MeasureSummary {
	out := make([]MeasureSummary, 0, len(f.measures))
	for _, name := range f.MeasureNames() {
		if err := ctx.Err(); err != nil {
			out = append(out, MeasureSummary{Name: name, Err: err})
			continue
		}
		m, err := f.Measure(name)
		if err != nil {
			out = append(out, MeasureSummary{Name: name, Err: err})
			continue
		}
		risks, err := f.AssessRiskContext(ctx, d, m)
		if err != nil {
			out = append(out, MeasureSummary{Name: name, Err: err})
			continue
		}
		out = append(out, MeasureSummary{Name: name, Summary: SummarizeRisks(risks, threshold)})
	}
	return out
}
