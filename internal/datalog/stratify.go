package datalog

import (
	"fmt"
	"sort"
)

// Dependencies is a program's predicate dependency analysis: the graph whose
// edges run from every body atom's predicate to the rule's head predicates
// (and between the heads of one rule, which derive together), its strongly
// connected components, and the dependencies that break stratification. The
// engine stratifies from it; vadalint reports VL008 and VL009 from it.
type Dependencies struct {
	// Violations lists every special dependency — a negated body atom, or
	// any body atom of a rule whose aggregate binds a head variable — whose
	// body and head predicates share a component: negation or head-binding
	// aggregation through recursion. They come in rule, literal, head
	// order, one per rule, head predicate and body predicate. A program
	// with any is not stratified and the engine refuses it.
	Violations []StratViolation

	id     map[string]int // predicate -> node
	comp   []int          // node -> component
	cyclic []bool         // component -> a real cycle
	edges  []depEdge
}

// StratViolation is one special dependency inside a recursive component.
type StratViolation struct {
	Rule    int    // index into Program.Rules
	Head    string // the head predicate that depends on Atom
	Atom    *Atom  // the body atom
	Negated bool   // through negation; false means head-binding aggregation
}

// depEdge is one dependency, body node → head node. A special one must
// cross strata strictly; lit is the body literal it comes from.
type depEdge struct {
	from, to  int
	rule, lit int
	special   bool
}

// Recursive returns the component of pred when it lies on a real cycle of
// the dependency graph — a component of two or more predicates, or one
// predicate that depends on itself — and false otherwise.
func (d *Dependencies) Recursive(pred string) (comp int, ok bool) {
	v, ok := d.id[pred]
	if !ok || !d.cyclic[d.comp[v]] {
		return 0, false
	}
	return d.comp[v], true
}

// AnalyzeDependencies builds the program's dependency graph and its
// components. EGD rules derive no predicate: their body predicates are nodes
// without edges.
func AnalyzeDependencies(p *Program) *Dependencies {
	d := &Dependencies{id: make(map[string]int)}
	node := func(pred string) int {
		v, ok := d.id[pred]
		if !ok {
			v = len(d.id)
			d.id[pred] = v
		}
		return v
	}
	var heads []int
	for ri, r := range p.Rules {
		heads = heads[:0]
		hasAggAssign := false
		for _, l := range r.Body {
			if l.Kind == LAggAssign {
				hasAggAssign = true
			}
		}
		if !r.IsEGD {
			for _, h := range r.Heads {
				heads = append(heads, node(h.Pred))
			}
		}
		// Heads of one rule are forced into the same stratum.
		for i := 1; i < len(heads); i++ {
			d.edges = append(d.edges, depEdge{from: heads[0], to: heads[i]}, depEdge{from: heads[i], to: heads[0]})
		}
		for li, l := range r.Body {
			if l.Kind != LAtom && l.Kind != LNegAtom {
				continue
			}
			from := node(l.Atom.Pred)
			for _, h := range heads {
				d.edges = append(d.edges, depEdge{from: from, to: h, rule: ri, lit: li,
					special: l.Kind == LNegAtom || hasAggAssign})
			}
		}
	}
	d.components()

	names := make([]string, len(d.id))
	for pred, v := range d.id {
		names[v] = pred
	}
	type key struct{ rule, head, body int }
	seen := make(map[key]bool)
	for _, e := range d.edges {
		if !e.special || d.comp[e.from] != d.comp[e.to] || seen[key{e.rule, e.to, e.from}] {
			continue
		}
		seen[key{e.rule, e.to, e.from}] = true
		l := p.Rules[e.rule].Body[e.lit]
		d.Violations = append(d.Violations, StratViolation{
			Rule: e.rule, Head: names[e.to], Atom: l.Atom, Negated: l.Kind == LNegAtom,
		})
	}
	return d
}

// components runs Tarjan's algorithm over the edges, iteratively so that a
// long predicate chain cannot overflow the goroutine stack, and marks the
// components that are real cycles.
func (d *Dependencies) components() {
	n := len(d.id)
	succ := make([][]int, n)
	for _, e := range d.edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	index := make([]int, n)
	low := make([]int, n)
	onstk := make([]bool, n)
	d.comp = make([]int, n)
	for i := range index {
		index[i] = -1
	}
	var size []int
	var stack []int
	counter := 0
	type frame struct{ v, next int }
	var work []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		work = append(work[:0], frame{v: start})
		for len(work) > 0 {
			fr := &work[len(work)-1]
			v := fr.v
			if fr.next == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onstk[v] = true
			}
			advanced := false
			for fr.next < len(succ[v]) {
				w := succ[v][fr.next]
				fr.next++
				if index[w] == -1 {
					work = append(work, frame{v: w})
					advanced = true
					break
				} else if onstk[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				c := len(size)
				size = append(size, 0)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstk[w] = false
					d.comp[w] = c
					size[c]++
					if w == v {
						break
					}
				}
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	d.cyclic = make([]bool, len(size))
	for c, s := range size {
		d.cyclic[c] = s > 1
	}
	for _, e := range d.edges {
		if e.from == e.to {
			d.cyclic[d.comp[e.from]] = true
		}
	}
}

// stratify computes a stratification of the program's predicates. Normal
// dependencies (positive body atom → head) may stay within a stratum;
// special dependencies — negated body atoms, and every body atom of a rule
// whose aggregate binds a head variable — must cross strata strictly. An
// error is reported when a special dependency lies on a cycle, i.e. the
// program uses negation (or head-binding aggregation) through recursion.
//
// Aggregates used as mere monotonic conditions (e.g. msum(W,[Z]) > 0.5) are
// allowed inside recursion: their truth only ever flips from false to true
// as contributions accumulate, so the fixpoint stays monotone — this is the
// engine-level counterpart of Vadalog's monotonic aggregations.
func stratify(p *Program) (strataOf map[string]int, numStrata int, err error) {
	d := AnalyzeDependencies(p)
	if len(d.Violations) > 0 {
		v := d.Violations[0]
		return nil, 0, fmt.Errorf(
			"datalog: program is not stratified: predicate %s depends on %s through negation or head-binding aggregation inside a recursive cycle",
			v.Head, v.Atom.Pred)
	}

	// Longest-path strata over the condensation: special edges add 1.
	ncomp := len(d.cyclic)
	stratum := make([]int, ncomp)
	changed := true
	for iter := 0; changed; iter++ {
		if iter > ncomp+1 {
			return nil, 0, fmt.Errorf("datalog: internal error: stratification did not converge")
		}
		changed = false
		for _, e := range d.edges {
			cf, ct := d.comp[e.from], d.comp[e.to]
			want := stratum[cf]
			if e.special {
				want++
			}
			if cf != ct && stratum[ct] < want {
				stratum[ct] = want
				changed = true
			}
		}
	}

	strataOf = make(map[string]int, len(d.id))
	maxS := 0
	for name, v := range d.id {
		s := stratum[d.comp[v]]
		strataOf[name] = s
		if s > maxS {
			maxS = s
		}
	}
	return strataOf, maxS + 1, nil
}

// attrPos identifies an argument position of a predicate.
type attrPos struct {
	pred string
	i    int
}

// WardViolation describes one unwarded rule: the dangerous variables — body
// variables that may only ever bind labelled nulls and that propagate to the
// head — and, per variable, the affected body positions (pred[i], 1-based)
// it occurs at, i.e. the positions where a ward atom would have to cover it.
type WardViolation struct {
	RuleIndex int
	Line      int
	Dangerous []string            // sorted dangerous variable names
	Positions map[string][]string // dangerous variable -> affected positions
	Rule      string              // rendered rule text
}

// CheckWarded verifies the (syntactic) wardedness restriction of Warded
// Datalog± that Vadalog builds on: in every rule, all “dangerous” variables
// — body variables that may only ever bind labelled nulls and that propagate
// to the head — must occur in a single body atom, the ward, which shares
// only harmless variables with the rest of the body. Programs accepted by
// this check have decidable, PTIME reasoning; the paper's algorithms are all
// warded. It reports the first violation; WardViolations returns all of
// them with per-variable detail for diagnostics-grade reporting.
func CheckWarded(p *Program) error {
	vs := WardViolations(p)
	if len(vs) == 0 {
		return nil
	}
	v := vs[0]
	return fmt.Errorf(
		"datalog: rule %d (line %d) is not warded: dangerous variables %v have no ward: %s",
		v.RuleIndex, v.Line, v.Dangerous, v.Rule)
}

// WardViolations runs the wardedness analysis and returns every unwarded
// rule with the dangerous variables and the affected positions they occur
// at. An empty slice means the program is warded.
func WardViolations(p *Program) []WardViolation {
	// Step 1: affected positions fixpoint. A position pred[i] is affected
	// if an existential variable occurs there in some head, or if a body
	// variable occurring only in affected positions occurs there in a head.
	affected := make(map[attrPos]bool)
	for _, r := range p.Rules {
		ex := make(map[string]bool)
		for _, v := range r.Existential {
			ex[v] = true
		}
		for _, h := range r.Heads {
			for i, t := range h.Args {
				if t.Kind == TVar && ex[t.Name] {
					affected[attrPos{h.Pred, i}] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			if r.IsEGD {
				continue
			}
			onlyAffected := bodyVarsOnlyInAffected(r, affected)
			for _, h := range r.Heads {
				for i, t := range h.Args {
					if t.Kind == TVar && onlyAffected[t.Name] && !affected[attrPos{h.Pred, i}] {
						affected[attrPos{h.Pred, i}] = true
						changed = true
					}
				}
			}
		}
	}

	// Step 2: per rule, find dangerous variables and check for a ward.
	var violations []WardViolation
	for ri, r := range p.Rules {
		if r.IsEGD {
			continue
		}
		harmful := bodyVarsOnlyInAffected(r, affected)
		headVars := make(map[string]bool)
		for _, h := range r.Heads {
			for _, t := range h.Args {
				if t.Kind == TVar {
					headVars[t.Name] = true
				}
			}
		}
		var dangerous []string
		for v := range harmful {
			if headVars[v] {
				dangerous = append(dangerous, v)
			}
		}
		if len(dangerous) == 0 {
			continue
		}
		sort.Strings(dangerous)
		// Some single positive body atom must contain all dangerous
		// variables and share only harmless variables with other atoms.
		ok := false
		for wi, l := range r.Body {
			if l.Kind != LAtom {
				continue
			}
			wardVars := atomVars(l.Atom)
			all := true
			for _, d := range dangerous {
				if !wardVars[d] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			shared := true
			for bi, l2 := range r.Body {
				if bi == wi || l2.Kind != LAtom {
					continue
				}
				for v := range atomVars(l2.Atom) {
					if wardVars[v] && harmful[v] {
						shared = false
						break
					}
				}
				if !shared {
					break
				}
			}
			if shared {
				ok = true
				break
			}
		}
		if !ok {
			pos := make(map[string][]string, len(dangerous))
			for _, d := range dangerous {
				for _, l := range r.Body {
					if l.Kind != LAtom {
						continue
					}
					for i, t := range l.Atom.Args {
						if t.Kind == TVar && t.Name == d && affected[attrPos{l.Atom.Pred, i}] {
							pos[d] = append(pos[d], fmt.Sprintf("%s[%d]", l.Atom.Pred, i+1))
						}
					}
				}
			}
			violations = append(violations, WardViolation{
				RuleIndex: ri,
				Line:      r.Line,
				Dangerous: dangerous,
				Positions: pos,
				Rule:      r.String(),
			})
		}
	}
	return violations
}

// bodyVarsOnlyInAffected returns the body variables of r that occur in
// positive body atoms only at affected positions.
func bodyVarsOnlyInAffected(r Rule, affected map[attrPos]bool) map[string]bool {
	seen := make(map[string]bool)  // occurs in some positive atom
	clean := make(map[string]bool) // occurs at some non-affected position
	for _, l := range r.Body {
		if l.Kind != LAtom {
			continue
		}
		for i, t := range l.Atom.Args {
			if t.Kind != TVar {
				continue
			}
			seen[t.Name] = true
			if !affected[attrPos{l.Atom.Pred, i}] {
				clean[t.Name] = true
			}
		}
	}
	out := make(map[string]bool)
	for v := range seen {
		if !clean[v] {
			out[v] = true
		}
	}
	return out
}

func atomVars(a *Atom) map[string]bool {
	out := make(map[string]bool)
	for _, t := range a.Args {
		if t.Kind == TVar {
			out[t.Name] = true
		}
	}
	return out
}
