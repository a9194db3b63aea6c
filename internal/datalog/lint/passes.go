package lint

import (
	"fmt"
	"sort"
	"strings"

	"vadasa/internal/datalog"
)

// Stable diagnostic codes. VL000 is produced by the parser bridge in
// Source, not by a pass; everything else maps 1:1 to a registry entry.
const (
	CodeSyntax        = "VL000" // parse error
	CodeExistential   = "VL001" // head variable not bound by any positive body literal
	CodeArity         = "VL002" // predicate used with inconsistent arities
	CodeSingleton     = "VL003" // variable occurs only once in a rule
	CodeUnused        = "VL004" // derived predicate never used
	CodeUnderivable   = "VL005" // body predicate never derivable
	CodeDuplicate     = "VL006" // duplicate or subsumed rule
	CodeUnwarded      = "VL007" // rule violates wardedness
	CodeExistCycle    = "VL008" // existential invention inside recursion
	CodeNotStratified = "VL009" // negation/head-binding aggregation through recursion
	CodeAggGroupNull  = "VL010" // aggregation grouped by an existential variable
)

// Pass is one registered analysis: a stable code, a short name, the default
// severity of its findings, and documentation — the registry drives both
// the analyzer and the docs table.
type Pass struct {
	Code     string
	Name     string
	Severity Severity
	Doc      string
	run      func(*pctx)
}

// Passes returns the registry, in execution order.
func Passes() []Pass { return passes }

var passes = []Pass{
	{CodeExistential, "existential-head", SeverityInfo,
		"head variable bound by no positive body literal: it is existential and invented as a labelled null (flags silent typos that turn a join variable into null invention)",
		passExistential},
	{CodeArity, "arity", SeverityError,
		"predicate used with different arities in different rules or facts; the engine never reports this — mismatched atoms silently never unify",
		passArity},
	{CodeSingleton, "singleton-var", SeverityWarn,
		"variable occurring exactly once in a rule (and not _-prefixed): almost always a typo that silently widens a join",
		passSingleton},
	{CodeUnused, "unused-pred", SeverityWarn,
		"intensional predicate derived by rules but used by none; undeclared outputs are dead code",
		passUnused},
	{CodeUnderivable, "underivable-pred", SeverityWarn,
		"body predicate with no deriving rule, no facts, and no input declaration: positive uses can never fire, negated uses are always true",
		passUnderivable},
	{CodeDuplicate, "duplicate-rule", SeverityWarn,
		"rule duplicating, or subsumed by, an earlier rule after canonical variable renaming",
		passDuplicate},
	{CodeUnwarded, "warded", SeverityError,
		"wardedness violation: dangerous variables (bound only at affected positions, propagating to the head) have no single ward atom — the decidability guarantee of Warded Datalog± is lost",
		passWarded},
	{CodeExistCycle, "existential-cycle", SeverityWarn,
		"existential rule on a recursive predicate cycle: the chase may invent unboundedly many labelled nulls; termination rests on wardedness and evaluation budgets",
		passExistCycle},
	{CodeNotStratified, "stratification", SeverityError,
		"negation or head-binding aggregation through recursion: the program has no stratification and the engine will refuse to evaluate it",
		passStratified},
	{CodeAggGroupNull, "agg-group-null", SeverityWarn,
		"aggregation grouped by an existential variable: every derivation invents a fresh labelled null and becomes its own group",
		passAggGroup},
}

// pctx is the shared state of one analysis run. deps and ward are the
// engine's own analyses, computed once per run.
type pctx struct {
	prog    *datalog.Program
	file    string
	inputs  map[string]bool
	outputs map[string]bool
	deps    *datalog.Dependencies
	ward    []datalog.WardViolation
	diags   []Diagnostic
}

func (c *pctx) rulePos(r *datalog.Rule) Pos {
	return Pos{File: c.file, Line: r.Line, Col: r.Col}
}

func (c *pctx) atomPos(a *datalog.Atom, r *datalog.Rule) Pos {
	if a != nil && a.Line > 0 {
		return Pos{File: c.file, Line: a.Line, Col: a.Col}
	}
	return c.rulePos(r)
}

func (c *pctx) report(pos Pos, sev Severity, code, format string, args ...any) *Diagnostic {
	c.diags = append(c.diags, Diagnostic{
		Pos:      pos,
		Severity: sev,
		Code:     code,
		Message:  fmt.Sprintf(format, args...),
	})
	return &c.diags[len(c.diags)-1]
}

// ---- VL001: existential head variables -------------------------------------

func passExistential(c *pctx) {
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		if r.IsEGD {
			continue
		}
		for _, v := range r.Existential {
			c.report(c.rulePos(r), SeverityInfo, CodeExistential,
				"head variable %s is not bound by any positive body literal: it is existential and will be invented as a labelled null", v)
		}
	}
}

// ---- VL002: arity consistency ----------------------------------------------

func passArity(c *pctx) {
	type use struct {
		arity int
		pos   Pos
	}
	first := make(map[string]use)
	check := func(a *datalog.Atom, r *datalog.Rule) {
		pos := c.atomPos(a, r)
		prev, ok := first[a.Pred]
		if !ok {
			first[a.Pred] = use{arity: len(a.Args), pos: pos}
			return
		}
		if prev.arity == len(a.Args) {
			return
		}
		d := c.report(pos, SeverityError, CodeArity,
			"predicate %s used with %d arguments, but with %d at line %d",
			a.Pred, len(a.Args), prev.arity, prev.pos.Line)
		d.Related = []Related{{
			Pos:     prev.pos,
			Message: fmt.Sprintf("first use of %s, with %d arguments", a.Pred, prev.arity),
		}}
	}
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		for j := range r.Heads {
			check(&r.Heads[j], r)
		}
		for j := range r.Body {
			if a := r.Body[j].Atom; a != nil {
				check(a, r)
			}
		}
	}
}

// ---- VL003: singleton variables --------------------------------------------

func passSingleton(c *pctx) {
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		counts := make(map[string]int)
		bump := func(name string) { counts[name]++ }
		countTerm := func(t datalog.Term) {
			if t.Kind == datalog.TVar {
				bump(t.Name)
			}
		}
		countExpr := func(e datalog.Expr) { datalog.ExprVars(e, bump) }
		for _, h := range r.Heads {
			for _, t := range h.Args {
				countTerm(t)
			}
		}
		if r.IsEGD {
			countTerm(r.EGDL)
			countTerm(r.EGDR)
		}
		for _, l := range r.Body {
			switch l.Kind {
			case datalog.LAtom, datalog.LNegAtom:
				for _, t := range l.Atom.Args {
					countTerm(t)
				}
			case datalog.LCmp:
				countExpr(l.L)
				countExpr(l.R)
			case datalog.LAssign:
				bump(l.Var)
				countExpr(l.AssignE)
			case datalog.LAggAssign:
				bump(l.Var)
				countExpr(l.Agg.Arg)
				countExpr(l.Agg.Contrib)
			case datalog.LAggCond:
				countExpr(l.Agg.Arg)
				countExpr(l.Agg.Contrib)
				countExpr(l.R)
			}
		}
		exist := toSet(r.Existential)
		var singles []string
		for v, n := range counts {
			if n == 1 && !strings.HasPrefix(v, "_") && !exist[v] {
				singles = append(singles, v)
			}
		}
		sort.Strings(singles)
		for _, v := range singles {
			c.report(c.rulePos(r), SeverityWarn, CodeSingleton,
				"variable %s occurs only once in this rule: likely a typo; prefix it with _ if intentional", v)
		}
	}
}

// ---- VL004 / VL005: dead and underivable predicates ------------------------

func passUnused(c *pctx) {
	usedInBody := make(map[string]bool)
	for i := range c.prog.Rules {
		for _, l := range c.prog.Rules[i].Body {
			if l.Atom != nil {
				usedInBody[l.Atom.Pred] = true
			}
		}
	}
	reported := make(map[string]bool)
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		if len(r.Body) == 0 {
			continue // facts are data, not dead code
		}
		for j := range r.Heads {
			h := &r.Heads[j]
			if usedInBody[h.Pred] || c.outputs[h.Pred] || reported[h.Pred] {
				continue
			}
			reported[h.Pred] = true
			c.report(c.atomPos(h, r), SeverityWarn, CodeUnused,
				"predicate %s is derived but never used by any rule; if it is the program's output, declare it with '%% vadalint:output %s'",
				h.Pred, h.Pred)
		}
	}
}

func passUnderivable(c *pctx) {
	derivable := make(map[string]bool)
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		for _, h := range r.Heads {
			derivable[h.Pred] = true // rule heads and in-program facts alike
		}
	}
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		seen := make(map[string]bool) // one report per predicate per rule
		for _, l := range r.Body {
			if l.Atom == nil || derivable[l.Atom.Pred] || c.inputs[l.Atom.Pred] || seen[l.Atom.Pred] {
				continue
			}
			seen[l.Atom.Pred] = true
			if l.Kind == datalog.LNegAtom {
				c.report(c.atomPos(l.Atom, r), SeverityWarn, CodeUnderivable,
					"predicate %s is never derived and has no facts: this negation is always true (declare '%% vadalint:input %s' if it is extensional)",
					l.Atom.Pred, l.Atom.Pred)
			} else {
				c.report(c.atomPos(l.Atom, r), SeverityWarn, CodeUnderivable,
					"predicate %s is never derived and has no facts: this rule can never fire (declare '%% vadalint:input %s' if it is extensional)",
					l.Atom.Pred, l.Atom.Pred)
			}
		}
	}
}

// ---- VL006: duplicate and subsumed rules -----------------------------------

func passDuplicate(c *pctx) {
	type canon struct {
		head string
		body map[string]bool
		key  string
	}
	canons := make([]canon, len(c.prog.Rules))
	for i := range c.prog.Rules {
		canons[i] = canonicalize(&c.prog.Rules[i])
	}
	firstByKey := make(map[string]int)
	subsumable := func(i int) bool {
		r := &c.prog.Rules[i]
		return len(r.Existential) == 0 && !r.IsEGD && !hasAggregate(r) && len(r.Body) > 0
	}
	flagged := make(map[int]bool)
	for i := range canons {
		ci := canons[i]
		r := &c.prog.Rules[i]
		if prev, ok := firstByKey[ci.key]; ok {
			flagged[i] = true
			d := c.report(c.rulePos(r), SeverityWarn, CodeDuplicate,
				"rule duplicates the rule at line %d", c.prog.Rules[prev].Line)
			d.Related = []Related{{Pos: c.rulePos(&c.prog.Rules[prev]), Message: "first occurrence"}}
			continue
		}
		firstByKey[ci.key] = i

		// Subsumption (syntactic, conservative): of two rules with the
		// same canonical head, the one whose body literals are a strict
		// subset derives a superset of the other's conclusions, making
		// the more specific rule redundant. Existential heads and
		// aggregates change semantics, so they are skipped.
		if !subsumable(i) {
			continue
		}
		for j := 0; j < i; j++ {
			cj := canons[j]
			if cj.head != ci.head || !subsumable(j) || flagged[j] {
				continue
			}
			// The smaller body is the more general rule; the other one
			// is the redundant finding.
			gen, spec := j, i
			if len(canons[spec].body) <= len(canons[gen].body) {
				gen, spec = i, j
			}
			subset := true
			for lit := range canons[gen].body {
				if !canons[spec].body[lit] {
					subset = false
					break
				}
			}
			if subset && !flagged[spec] {
				flagged[spec] = true
				d := c.report(c.rulePos(&c.prog.Rules[spec]), SeverityWarn, CodeDuplicate,
					"rule is subsumed by the more general rule at line %d (its body literals are a subset of this rule's)",
					c.prog.Rules[gen].Line)
				d.Related = []Related{{Pos: c.rulePos(&c.prog.Rules[gen]), Message: "subsuming rule"}}
				if spec == i {
					break
				}
			}
		}
	}
}

func hasAggregate(r *datalog.Rule) bool {
	for _, l := range r.Body {
		if l.Kind == datalog.LAggAssign || l.Kind == datalog.LAggCond {
			return true
		}
	}
	return false
}

// canonicalize renders a rule with variables renamed in order of first
// appearance (head first, then body in literal order), and the body
// literals sorted — so duplicates survive both alpha-renaming and body
// reordering.
func canonicalize(r *datalog.Rule) struct {
	head string
	body map[string]bool
	key  string
} {
	rename := make(map[string]string)
	var head string
	if r.IsEGD {
		head = "EGD " + renameVars(r.EGDL.String()+"="+r.EGDR.String(), rename)
	} else {
		parts := make([]string, len(r.Heads))
		for i, h := range r.Heads {
			parts[i] = renameVars(h.String(), rename)
		}
		head = strings.Join(parts, ",")
	}
	body := make(map[string]bool, len(r.Body))
	lits := make([]string, len(r.Body))
	for i, l := range r.Body {
		lits[i] = renameVars(l.String(), rename)
		body[lits[i]] = true
	}
	sort.Strings(lits)
	return struct {
		head string
		body map[string]bool
		key  string
	}{head: head, body: body, key: head + " :- " + strings.Join(lits, ", ")}
}

// renameVars rewrites every variable token (uppercase- or _-initial
// identifier outside string literals) to a canonical name shared through
// rename, preserving everything else byte for byte.
func renameVars(s string, rename map[string]string) string {
	var b strings.Builder
	i := 0
	for i < len(s) {
		ch := s[i]
		switch {
		case ch == '"':
			j := i + 1
			for j < len(s) {
				if s[j] == '\\' {
					j += 2
					continue
				}
				if s[j] == '"' {
					j++
					break
				}
				j++
			}
			if j > len(s) {
				j = len(s)
			}
			b.WriteString(s[i:j])
			i = j
		case ch == '_' || (ch >= 'A' && ch <= 'Z'):
			j := i
			for j < len(s) && isIdentByte(s[j]) {
				j++
			}
			name := s[i:j]
			canon, ok := rename[name]
			if !ok {
				canon = fmt.Sprintf("V%d", len(rename))
				rename[name] = canon
			}
			b.WriteString(canon)
			i = j
		case isIdentByte(ch):
			j := i
			for j < len(s) && isIdentByte(s[j]) {
				j++
			}
			b.WriteString(s[i:j])
			i = j
		default:
			b.WriteByte(ch)
			i++
		}
	}
	return b.String()
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// ---- VL007: wardedness ------------------------------------------------------

func passWarded(c *pctx) {
	for _, v := range c.ward {
		r := &c.prog.Rules[v.RuleIndex]
		parts := make([]string, len(v.Dangerous))
		for i, d := range v.Dangerous {
			if pos := v.Positions[d]; len(pos) > 0 {
				parts[i] = fmt.Sprintf("%s (at affected positions %s)", d, strings.Join(pos, ", "))
			} else {
				parts[i] = d
			}
		}
		c.report(c.rulePos(r), SeverityError, CodeUnwarded,
			"rule is not warded: dangerous variable(s) %s propagate to the head but no single body atom wards them",
			strings.Join(parts, "; "))
	}
}

// ---- VL008: existential invention inside recursion --------------------------

func passExistCycle(c *pctx) {
	unwarded := make(map[int]bool)
	for _, v := range c.ward {
		unwarded[v.RuleIndex] = true
	}
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		if len(r.Existential) == 0 || unwarded[i] {
			continue // unwarded recursion is already the stronger VL007
		}
		cycle := ""
	scan:
		for _, h := range r.Heads {
			hc, ok := c.deps.Recursive(h.Pred)
			if !ok {
				continue
			}
			for _, l := range r.Body {
				if l.Kind == datalog.LAtom {
					if bc, ok := c.deps.Recursive(l.Atom.Pred); ok && bc == hc {
						cycle = fmt.Sprintf("%s depends on %s", h.Pred, l.Atom.Pred)
						break scan
					}
				}
			}
		}
		if cycle != "" {
			c.report(c.rulePos(r), SeverityWarn, CodeExistCycle,
				"existential rule lies on a recursive cycle (%s): the chase may invent unboundedly many labelled nulls; termination rests on wardedness and evaluation budgets",
				cycle)
		}
	}
}

// ---- VL009: stratification ---------------------------------------------------

func passStratified(c *pctx) {
	for _, v := range c.deps.Violations {
		cause := "stratified negation"
		if !v.Negated {
			cause = "head-binding aggregation"
		}
		c.report(c.atomPos(v.Atom, &c.prog.Rules[v.Rule]), SeverityError, CodeNotStratified,
			"program is not stratifiable: %s depends on %s through %s inside a recursive cycle; the engine will refuse to evaluate it",
			v.Head, v.Atom.Pred, cause)
	}
}

// ---- VL010: aggregation grouped by existentials ------------------------------

func passAggGroup(c *pctx) {
	for i := range c.prog.Rules {
		r := &c.prog.Rules[i]
		if len(r.Existential) == 0 {
			continue
		}
		var aggVar string
		hasAgg := false
		for _, l := range r.Body {
			switch l.Kind {
			case datalog.LAggAssign:
				hasAgg, aggVar = true, l.Var
			case datalog.LAggCond:
				hasAgg = true
			}
		}
		if !hasAgg {
			continue
		}
		exist := toSet(r.Existential)
		reported := make(map[string]bool)
		for _, h := range r.Heads {
			for _, t := range h.Args {
				if t.Kind == datalog.TVar && t.Name != aggVar && exist[t.Name] && !reported[t.Name] {
					reported[t.Name] = true
					c.report(c.rulePos(r), SeverityWarn, CodeAggGroupNull,
						"aggregation groups by existential variable %s: every derivation invents a fresh labelled null and forms its own single-member group", t.Name)
				}
			}
		}
	}
}
