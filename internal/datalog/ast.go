package datalog

import (
	"fmt"
	"sort"
	"strings"
)

// TermKind discriminates terms of the surface syntax.
type TermKind uint8

// Term kinds.
const (
	TVar TermKind = iota
	TConst
)

// Term is a variable or a constant appearing in an atom or expression.
type Term struct {
	Kind TermKind
	Name string // variable name when Kind == TVar
	Val  Val    // constant value when Kind == TConst
}

// V returns a variable term.
func V(name string) Term { return Term{Kind: TVar, Name: name} }

// C returns a constant term.
func C(v Val) Term { return Term{Kind: TConst, Val: v} }

func (t Term) String() string {
	if t.Kind == TVar {
		return t.Name
	}
	return t.Val.String()
}

// Atom is a predicate applied to terms. Line/Col locate the predicate name
// in the source text when the atom came from the parser (zero for atoms
// built programmatically); static-analysis diagnostics anchor on them.
type Atom struct {
	Pred string
	Args []Term

	Line, Col int
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Expr is an arithmetic/term expression evaluated against an environment.
type Expr interface {
	fmt.Stringer
	vars(visit func(name string))
}

// ExprVars calls visit for every variable occurrence in e, in source order,
// a variable once per occurrence. A nil e has none.
func ExprVars(e Expr, visit func(name string)) {
	if e != nil {
		e.vars(visit)
	}
}

// ExprTerm is a leaf expression: a variable or constant.
type ExprTerm struct{ T Term }

func (e ExprTerm) String() string { return e.T.String() }
func (e ExprTerm) vars(visit func(string)) {
	if e.T.Kind == TVar {
		visit(e.T.Name)
	}
}

// ExprBin is a binary arithmetic expression over + - * /.
type ExprBin struct {
	Op   string
	L, R Expr
}

func (e ExprBin) String() string { return "(" + e.L.String() + e.Op + e.R.String() + ")" }
func (e ExprBin) vars(visit func(string)) {
	e.L.vars(visit)
	e.R.vars(visit)
}

// ExprNeg is unary numeric negation.
type ExprNeg struct{ E Expr }

func (e ExprNeg) String() string          { return "-" + e.E.String() }
func (e ExprNeg) vars(visit func(string)) { e.E.vars(visit) }

// ExprCall is a built-in function call (abs, min, max, sqrt, pow, floor,
// ceil, log, concat, len) — the engine-side counterpart of Vadalog's
// function libraries.
type ExprCall struct {
	Name string
	Args []Expr
}

func (e ExprCall) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

func (e ExprCall) vars(visit func(string)) {
	for _, a := range e.Args {
		a.vars(visit)
	}
}

// AggFn names a monotonic aggregation function.
type AggFn string

// Supported aggregation functions.
const (
	AggSum   AggFn = "msum"
	AggCount AggFn = "mcount"
	AggProd  AggFn = "mprod"
	AggUnion AggFn = "munion"
)

// Agg is a monotonic aggregation occurrence: Fn(Arg, [Contrib]). For mcount
// the Arg is nil. The group key is the tuple of all other variables
// appearing in the rule head; Contrib identifies the aggregation contributor
// of Section 4.3: for a fixed (group, contributor) pair only one
// contribution — the monotonically best — is retained, which is what lets
// anonymized tuple versions replace their predecessors inside aggregates.
type Agg struct {
	Fn      AggFn
	Arg     Expr // nil for mcount
	Contrib Expr
}

func (a Agg) String() string {
	if a.Arg == nil {
		return fmt.Sprintf("%s([%s])", a.Fn, a.Contrib)
	}
	return fmt.Sprintf("%s(%s,[%s])", a.Fn, a.Arg, a.Contrib)
}

// LitKind discriminates body literals.
type LitKind uint8

// Literal kinds.
const (
	LAtom    LitKind = iota // positive atom
	LNegAtom                // negated atom (stratified)
	LCmp                    // comparison between expressions
	LAssign                 // X = expr (binds X if free, compares otherwise)
	LAggAssign
	LAggCond
)

// Comparison operators.
const (
	OpEq = "=="
	OpNe = "!="
	OpLt = "<"
	OpLe = "<="
	OpGt = ">"
	OpGe = ">="
	OpIn = "in"
)

// Literal is one conjunct of a rule body.
type Literal struct {
	Kind LitKind

	Atom *Atom // LAtom, LNegAtom

	// LCmp: L Op R. LAssign: Var = AssignE.
	Op   string
	L, R Expr

	Var     string // LAssign / LAggAssign result variable
	AssignE Expr   // LAssign right-hand side

	// LAggAssign: Var = Agg. LAggCond: Agg Op R.
	Agg *Agg
}

func (l Literal) String() string {
	switch l.Kind {
	case LAtom:
		return l.Atom.String()
	case LNegAtom:
		return "not " + l.Atom.String()
	case LCmp:
		return l.L.String() + " " + l.Op + " " + l.R.String()
	case LAssign:
		return l.Var + " = " + l.AssignE.String()
	case LAggAssign:
		return l.Var + " = " + l.Agg.String()
	case LAggCond:
		return l.Agg.String() + " " + l.Op + " " + l.R.String()
	default:
		return "?"
	}
}

// Rule is a (possibly existential) rule, an EGD, or a fact. Facts are rules
// with an empty body and ground heads. EGDs have IsEGD set and use EGDL/EGDR
// instead of Heads.
type Rule struct {
	Heads []Atom
	Body  []Literal

	IsEGD      bool
	EGDL, EGDR Term

	// Existential holds the head variables that do not occur in the body:
	// they are invented as labelled nulls during the chase. Populated by
	// finalize.
	Existential []string

	Line int
	Col  int
}

func (r Rule) String() string {
	var head string
	if r.IsEGD {
		head = r.EGDL.String() + " = " + r.EGDR.String()
	} else {
		parts := make([]string, len(r.Heads))
		for i, h := range r.Heads {
			parts[i] = h.String()
		}
		head = strings.Join(parts, ", ")
	}
	if len(r.Body) == 0 {
		return head + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return head + " :- " + strings.Join(parts, ", ") + "."
}

// bodyVars returns the variables bound by the body: variables of positive
// atoms plus assignment/aggregate-assignment targets.
func (r Rule) bodyVars() map[string]bool {
	vars := make(map[string]bool)
	for _, l := range r.Body {
		switch l.Kind {
		case LAtom:
			for _, t := range l.Atom.Args {
				if t.Kind == TVar {
					vars[t.Name] = true
				}
			}
		case LAssign, LAggAssign:
			vars[l.Var] = true
		}
	}
	return vars
}

// finalize computes Existential and sanity-checks the rule shape. It returns
// an error for unsafe rules: negated atoms, comparisons, and expressions may
// only use body-bound variables; at most one aggregate per rule. The error
// names the first unsafe variable in source order.
func (r *Rule) finalize() error {
	bound := r.bodyVars()
	check := func(e Expr, ctx string) error {
		unsafe := ""
		ExprVars(e, func(v string) {
			if unsafe == "" && !bound[v] {
				unsafe = v
			}
		})
		if unsafe != "" {
			return fmt.Errorf("line %d: unsafe variable %s in %s", r.Line, unsafe, ctx)
		}
		return nil
	}
	aggs := 0
	for _, l := range r.Body {
		switch l.Kind {
		case LNegAtom:
			for _, t := range l.Atom.Args {
				if t.Kind == TVar && !bound[t.Name] {
					return fmt.Errorf("line %d: unsafe variable %s in negated atom %s",
						r.Line, t.Name, l.Atom)
				}
			}
		case LCmp:
			if err := check(l.L, "comparison"); err != nil {
				return err
			}
			if err := check(l.R, "comparison"); err != nil {
				return err
			}
		case LAssign:
			if err := check(l.AssignE, "assignment"); err != nil {
				return err
			}
		case LAggAssign, LAggCond:
			aggs++
			if err := check(l.Agg.Arg, "aggregate"); err != nil {
				return err
			}
			if err := check(l.Agg.Contrib, "aggregate contributor"); err != nil {
				return err
			}
			if err := check(l.R, "aggregate comparison"); err != nil {
				return err
			}
		}
	}
	if aggs > 1 {
		return fmt.Errorf("line %d: at most one aggregate per rule", r.Line)
	}
	if r.IsEGD {
		for _, t := range []Term{r.EGDL, r.EGDR} {
			if t.Kind == TVar && !bound[t.Name] {
				return fmt.Errorf("line %d: unsafe variable %s in EGD head", r.Line, t.Name)
			}
		}
		return nil
	}
	exist := make(map[string]bool)
	for _, h := range r.Heads {
		for _, t := range h.Args {
			if t.Kind == TVar && !bound[t.Name] {
				exist[t.Name] = true
			}
		}
	}
	r.Existential = r.Existential[:0]
	for v := range exist {
		r.Existential = append(r.Existential, v)
	}
	sort.Strings(r.Existential)
	return nil
}

// headPreds returns the predicates defined by the rule head.
func (r Rule) headPreds() []string {
	var out []string
	for _, h := range r.Heads {
		out = append(out, h.Pred)
	}
	return out
}

// Program is a parsed set of rules and facts.
type Program struct {
	Rules []Rule
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
