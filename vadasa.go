// Package vadasa is a reasoning-based framework for financial data exchange
// with statistical confidentiality — a from-scratch Go reproduction of
// Vada-SA (Bellomarini, Blasi, Laurendi, Sallinger: “Financial Data Exchange
// with Statistical Confidentiality: A Reasoning-based Approach”, EDBT 2021).
//
// The framework evaluates the statistical disclosure risk of microdata
// tables and anonymizes them with a statistics-preserving anonymization
// cycle: iteratively estimate per-tuple risk, and remove the minimum amount
// of information (local suppression with labelled nulls, or global recoding
// over domain hierarchies) until every tuple's risk is under a threshold.
//
// A minimal session:
//
//	f := vadasa.New()
//	report, _ := f.Register(dataset)        // categorize attributes
//	risks, _ := f.AssessRisk(dataset, vadasa.KAnonymity{K: 3})
//	res, _ := f.Anonymize(dataset, vadasa.CycleOptions{
//		Measure:   vadasa.KAnonymity{K: 3},
//		Threshold: 0.5,
//	})
//	for _, d := range res.Decisions { fmt.Println(d) } // full explanation
//
// The heavy lifting lives in the internal packages; this package re-exports
// the stable surface: the microdata model (internal/mdb), the risk measures
// of the paper's Section 4.2 (internal/risk), anonymization methods and the
// cycle (internal/anon), business-knowledge risk propagation
// (internal/cluster), domain hierarchies (internal/hierarchy), attribute
// categorization (internal/categorize), the identity-oracle attack simulator
// (internal/attack), and the warded-Datalog± reasoning engine the paper
// builds on (internal/datalog, with the paper's algorithms as runnable
// programs in internal/programs).
package vadasa

import (
	"io"

	"vadasa/internal/anon"
	"vadasa/internal/attack"
	"vadasa/internal/categorize"
	"vadasa/internal/cluster"
	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
	"vadasa/internal/utility"
)

// Microdata model (internal/mdb).
type (
	// Dataset is a microdata DB: a named relation with categorized
	// attributes and per-tuple sampling weights.
	Dataset = mdb.Dataset
	// Attribute describes one column and its disclosure category.
	Attribute = mdb.Attribute
	// Row is one microdata tuple.
	Row = mdb.Row
	// Value is a constant or a labelled null ⊥ᵢ.
	Value = mdb.Value
	// Category classifies attributes for disclosure purposes.
	Category = mdb.Category
	// Semantics selects how labelled nulls compare during grouping.
	Semantics = mdb.Semantics
	// Dictionary is the metadata dictionary over registered microdata DBs.
	Dictionary = mdb.Dictionary
)

// Attribute categories (Section 2.1).
const (
	NonIdentifying  = mdb.NonIdentifying
	Identifier      = mdb.Identifier
	QuasiIdentifier = mdb.QuasiIdentifier
	Weight          = mdb.Weight
)

// Labelled-null comparison semantics (Section 4.3).
const (
	// MaybeMatch treats a labelled null as compatible with anything.
	MaybeMatch = mdb.MaybeMatch
	// StandardNulls is the Skolem baseline of Figure 7c.
	StandardNulls = mdb.StandardNulls
)

// Const returns a constant value.
func Const(s string) Value { return mdb.Const(s) }

// NewDataset returns an empty dataset with the given schema.
func NewDataset(name string, attrs []Attribute) *Dataset {
	return mdb.NewDataset(name, attrs)
}

// CSVHeader reads the first record of a CSV as attribute names (quoting as
// encoding/csv reads it; byte-order mark and surrounding white space dropped)
// — what Framework.Schema categorizes and ReadCSV then checks the file against.
func CSVHeader(r io.Reader) ([]string, error) { return mdb.CSVHeader(r) }

// ReadCSV reads a microdata DB from CSV against a schema.
func ReadCSV(r io.Reader, name string, attrs []Attribute) (*Dataset, error) {
	return mdb.ReadCSV(r, name, attrs)
}

// ParseCSV is ReadCSV over b itself: the dataset's cells are substrings of
// b, which the caller gives up and must not change while the dataset is in
// use.
func ParseCSV(b []byte, name string, attrs []Attribute) (*Dataset, error) {
	return mdb.ParseCSV(b, name, attrs)
}

// ParseCSVGroup is ParseCSV keeping only the tuple id's exact group, the rows
// ExplainRisk chases for a measure ExplainReadsGroup: same errors, nulls and
// row IDs, but rows built only for the group.
func ParseCSVGroup(b []byte, name string, attrs []Attribute, id int) (*Dataset, error) {
	return mdb.ParseCSVGroup(b, name, attrs, id)
}

// WriteCSV writes a dataset (labelled nulls in ⊥i form) as CSV.
func WriteCSV(w io.Writer, d *Dataset) error { return mdb.WriteCSV(w, d) }

// Risk measures (Section 4.2).
type (
	// RiskMeasure estimates per-tuple disclosure risk in [0,1].
	RiskMeasure = risk.Assessor
	// ContextRiskMeasure is a RiskMeasure that can be cancelled
	// mid-evaluation: all built-in measures implement it, and custom
	// measures that do are stopped promptly by AssessRiskContext /
	// AnonymizeContext when the request's context is done.
	ContextRiskMeasure = risk.ContextAssessor
	// ReIdentification is Algorithm 3: risk 1/ΣW over the tuple's group.
	ReIdentification = risk.ReIdentification
	// KAnonymity is Algorithm 4: risk 1 when the combination occurs
	// fewer than K times.
	KAnonymity = risk.KAnonymity
	// IndividualRisk is Algorithm 5: the Benedetti–Franconi posterior.
	IndividualRisk = risk.IndividualRisk
	// SUDA is Algorithm 6: minimal-sample-unique detection.
	SUDA = risk.SUDA
	// LDiversity extends k-anonymity against homogeneity attacks: a group
	// is dangerous when it carries fewer than L distinct values of a
	// sensitive attribute.
	LDiversity = risk.LDiversity
	// TCloseness flags groups whose sensitive-attribute distribution
	// drifts more than T (total variation) from the global one.
	TCloseness = risk.TCloseness
)

// Individual-risk estimators.
const (
	RatioEstimator      = risk.Ratio
	PosteriorEstimator  = risk.PosteriorSeries
	MonteCarloEstimator = risk.MonteCarlo
)

// Anonymization (Section 4.3/4.4).
type (
	// Anonymizer applies one minimal anonymization step to a risky tuple.
	Anonymizer = anon.Anonymizer
	// LocalSuppression replaces a quasi-identifier with a labelled null.
	LocalSuppression = anon.LocalSuppression
	// GlobalRecoding rolls values up a domain hierarchy.
	GlobalRecoding = anon.GlobalRecoding
	// Composite chains anonymizers (recode while possible, then suppress).
	Composite = anon.Composite
	// Decision is one explained anonymization step.
	Decision = anon.Decision
	// CycleResult is the outcome of an anonymization cycle.
	CycleResult = anon.Result
	// AttrChoice picks which quasi-identifier to anonymize first.
	AttrChoice = anon.AttrChoice
	// TupleOrder picks which risky tuples to anonymize first.
	TupleOrder = anon.TupleOrder
	// CycleCheckpoint is one committed cycle iteration — the unit a durable
	// job manager journals and later replays through ResumeAnonymizeContext.
	CycleCheckpoint = anon.Checkpoint
	// CheckpointFunc receives each committed iteration; an error aborts the
	// cycle (write-ahead: un-journaled progress must not happen).
	CheckpointFunc = anon.CheckpointFunc
)

// Runtime heuristics (Section 4.4).
const (
	AttrMostSelective  = anon.AttrMostSelective
	AttrLeastSelective = anon.AttrLeastSelective
	AttrSchemaOrder    = anon.AttrSchemaOrder

	OrderLessSignificantFirst = anon.OrderLessSignificantFirst
	OrderByRiskDesc           = anon.OrderByRiskDesc
	OrderByID                 = anon.OrderByID
)

// Business knowledge (Section 4.4).
type (
	// OwnershipGraph holds company-ownership shares; control closure and
	// clusters derive from it.
	OwnershipGraph = cluster.Graph
	// ClusterRisk decorates a base measure with 1−Π(1−ρ) propagation.
	ClusterRisk = cluster.Assessor
	// Hierarchy is the TypeOf/SubTypeOf/InstOf/IsA knowledge base used by
	// global recoding.
	Hierarchy = hierarchy.Hierarchy
)

// NewOwnershipGraph returns an empty ownership graph.
func NewOwnershipGraph() *OwnershipGraph { return cluster.NewGraph() }

// NewHierarchy returns an empty domain hierarchy.
func NewHierarchy() *Hierarchy { return hierarchy.New() }

// ItalianGeography is the city→region→country hierarchy fixture used in the
// paper's recoding examples.
func ItalianGeography() *Hierarchy { return hierarchy.ItalianGeography() }

// Categorization (Section 4.1 / Algorithm 1).
type (
	// ExperienceEntry is one known attribute-name→category pair.
	ExperienceEntry = categorize.Entry
	// Similarity is the pluggable ∼ relation of Algorithm 1.
	Similarity = categorize.Similarity
	// CategorizationResult carries categories, explanations, conflicts
	// and the unknown attributes awaiting expert input.
	CategorizationResult = categorize.Result
)

// Attack simulation (Section 2.2 / Figure 2).
type (
	// IdentityOracle is the external population an attacker cross-links
	// against.
	IdentityOracle = attack.Oracle
	// AttackResult aggregates expected and sampled re-identifications.
	AttackResult = attack.Result
)

// BuildOracle synthesizes an identity oracle (and the true identity of every
// tuple) from an un-anonymized microdata DB; weights set how many population
// lookalikes each tuple has, capped at maxPerRow.
func BuildOracle(d *Dataset, maxPerRow int) (*IdentityOracle, map[int]string, error) {
	return attack.Build(d, maxPerRow)
}

// Synthetic data (Figure 6).
type (
	// GeneratorConfig parameterizes the synthetic dataset generator.
	GeneratorConfig = synth.Config
	// Distribution selects the W/U/V family of Figure 6.
	Distribution = synth.Dist
)

// Distribution families.
const (
	DistW = synth.DistW
	DistU = synth.DistU
	DistV = synth.DistV
)

// Generate builds a synthetic microdata DB in the R<t>A<q><dist> family.
func Generate(cfg GeneratorConfig) *Dataset { return synth.Generate(cfg) }

// GenerateByName regenerates a Figure 6 dataset by its paper name, e.g.
// "R25A4W".
func GenerateByName(name string) (*Dataset, error) { return synth.ByName(name) }

// InflationGrowth returns the 20-tuple Figure 1 fixture.
func InflationGrowth() *Dataset { return synth.InflationGrowth() }

// RiskSummary condenses a per-tuple risk vector into distribution figures —
// the preemptive confidentiality score of desideratum (iii).
type RiskSummary = risk.Summary

// SummarizeRisks computes count/quantile statistics of a risk vector against
// a threshold.
func SummarizeRisks(risks []float64, threshold float64) RiskSummary {
	return risk.Summarize(risks, threshold)
}

// UtilityReport quantifies statistics preservation: per-attribute
// suppression/recoding counts, marginal-distribution drift, and
// aggregation-group growth (desideratum v of the paper).
type UtilityReport = utility.Report

// CompareUtility measures how much statistical value the anonymized dataset
// retains relative to the original it was derived from.
func CompareUtility(before, after *Dataset) (*UtilityReport, error) {
	return utility.Compare(before, after)
}

// HouseholdConfig parameterizes the household-survey generator.
type HouseholdConfig = synth.HouseholdConfig

// GenerateHousehold builds a person-level microdata DB with household
// structure (the "Household income and wealth" survey style of Section 2)
// and returns the member identifiers of each household, for use with
// cluster-risk propagation.
func GenerateHousehold(cfg HouseholdConfig) (*Dataset, map[string][]string) {
	return synth.Household(cfg)
}

// Microaggregate applies univariate microaggregation to a numeric attribute:
// sorted values are partitioned into groups of at least k and replaced by
// their group means, preserving the column total exactly — a third
// statistics-preserving anonymization method next to suppression and
// recoding.
func Microaggregate(d *Dataset, attr string, k int) error {
	return anon.Microaggregate(d, attr, k)
}

// Discretize replaces a numeric attribute's values with interval labels
// over the given cut points and installs the matching generalization ladder
// into the hierarchy, so global recoding can coarsen the attribute further.
func Discretize(d *Dataset, attr string, cuts []float64, kb *Hierarchy) error {
	return anon.Discretize(d, attr, cuts, kb)
}

// VerifyKAnonymity independently checks the released dataset: it returns
// the IDs of tuples whose maybe-match group is smaller than k (empty =
// certified k-anonymous under the given semantics).
func VerifyKAnonymity(d *Dataset, k int, sem Semantics) []int {
	return anon.VerifyKAnonymity(d, k, sem)
}

// DeclarativeAnonymize runs the anonymization cycle for k-anonymity with
// local suppression entirely through reasoning passes on the engine: the
// cycle of Framework.Anonymize with both plug-ins declarative — the risk of
// every iteration is one chase of the k-anonymity program, every suppression
// one chase of Algorithm 7 whose existential rule invents the labelled null.
// The engine's labelled nulls follow the standard Skolem semantics — the
// Figure 7c baseline — so this is the didactic twin of Framework.Anonymize,
// intended for small datasets.
func DeclarativeAnonymize(d *Dataset, k int) (*CycleResult, error) {
	return programs.DeclarativeCycle(d, k)
}

// EstimateWeights fills in sampling weights for a dataset that arrived
// without them: weight = populationScale × maybe-match sample frequency of
// the tuple's quasi-identifier combination (the estimator of Section 2.1).
func EstimateWeights(d *Dataset, populationScale float64) error {
	return risk.EstimateWeights(d, populationScale)
}

// ImpactAnalysis measures how much each quasi-identifier contributes to the
// number of risky tuples: the over-threshold count with the full set versus
// with the attribute ignored, sorted by descending drop.
type ImpactEntry = risk.AttributeImpact

// AttributeImpacts runs the impact analysis with a k-anonymity yardstick.
func AttributeImpacts(d *Dataset, k int, threshold float64) ([]ImpactEntry, error) {
	return risk.ImpactAnalysis(d, func(attrs []string) risk.Assessor {
		return risk.KAnonymity{K: k, Attrs: attrs}
	}, threshold, MaybeMatch)
}
