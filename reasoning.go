package vadasa

import (
	"context"

	"vadasa/internal/datalog"
	"vadasa/internal/datalog/lint"
)

// Reasoning surface: the warded-Datalog±-style engine Vada-SA builds on.
// Business experts encode risk measures, anonymization criteria and
// surrounding business knowledge as declarative programs; the engine
// evaluates them with chase-based semantics (labelled-null invention for
// existential heads, stratified negation, monotonic aggregations with
// contributor semantics, EGDs) and full provenance.
type (
	// Program is a parsed reasoning program.
	Program = datalog.Program
	// FactDB is an extensional database of ground facts.
	FactDB = datalog.Database
	// ReasoningResult is a derived database with provenance and EGD
	// violations.
	ReasoningResult = datalog.Result
	// Fact is a tuple of runtime values.
	Fact = datalog.Tuple
	// Val is a runtime value: string, number, labelled null, or set.
	Val = datalog.Val
	// ReasoningOptions bounds a run (fact and round caps).
	ReasoningOptions = datalog.Options
	// ReasoningStats describes the work one evaluation performed: fixpoint
	// rounds, derived facts, match attempts against the work budget, peak
	// governed bytes, and the worker cap its delta partitions ran under.
	// Every ReasoningResult carries one as its Stats field.
	ReasoningStats = datalog.EvalStats
)

// ParseProgram parses a reasoning program in the Vadalog-flavoured syntax:
//
//	own("a","b",0.6).
//	rel(X,Y) :- own(X,Y,W), W > 0.5.
//	rel(X,Y) :- rel(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.
func ParseProgram(src string) (*Program, error) { return datalog.Parse(src) }

// MustParseProgram is ParseProgram for programs embedded in source code —
// the regexp.MustCompile idiom. It panics on syntax errors and must never be
// fed user input; servers and pipelines parse untrusted program text with
// ParseProgram, whose error return cannot take a daemon down.
func MustParseProgram(src string) *Program {
	p, err := datalog.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// NewFactDB returns an empty extensional database.
func NewFactDB() *FactDB { return datalog.NewDatabase() }

// Reason evaluates a program in the extensional database and returns the
// derived database. The run derives into edb, which belongs to it from the
// call on: read the result, not edb, and give each run a database of its
// own. A nil opts selects the defaults.
func Reason(p *Program, edb *FactDB, opts *ReasoningOptions) (*ReasoningResult, error) {
	return datalog.Run(p, edb, opts)
}

// ReasonContext is Reason honouring ctx: the engine polls the context at
// fixpoint-round boundaries and every few thousand fact-match attempts, so
// a deadline or cancellation stops a runaway chase promptly. The returned
// error wraps ctx.Err() for errors.Is.
func ReasonContext(ctx context.Context, p *Program, edb *FactDB, opts *ReasoningOptions) (*ReasoningResult, error) {
	return datalog.RunContext(ctx, p, edb, opts)
}

// CheckWarded validates the wardedness restriction that guarantees
// PTIME-decidable reasoning; the framework's built-in programs pass it.
func CheckWarded(p *Program) error { return datalog.CheckWarded(p) }

// ValidateProgram is the pre-flight the service runs before /reason: it
// lints the program and, when any finding has error severity — an arity
// clash, a wardedness violation, no stratification: what makes evaluation
// wrong or divergent, not merely suspicious — returns a *lint.Error carrying
// every position-tagged diagnostic. It is opt-in: Reason does not call it.
func ValidateProgram(p *Program) error { return lint.Preflight(p) }

// StrVal returns a string value.
func StrVal(s string) Val { return datalog.Str(s) }

// NumVal returns a numeric value.
func NumVal(n float64) Val { return datalog.Num(n) }

// QueryBinding is one solution of a query pattern over a reasoning result.
type QueryBinding = datalog.Binding

// QueryTerm is a pattern term: a variable (Var) or constant (Const).
type QueryTerm = datalog.Term

// Var returns a query-pattern variable.
func Var(name string) QueryTerm { return datalog.V(name) }

// Bound returns a query-pattern constant.
func Bound(v Val) QueryTerm { return datalog.C(v) }
