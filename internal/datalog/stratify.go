package datalog

import (
	"fmt"
	"sort"
)

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
	type edge struct {
		from, to string
		special  bool
	}
	preds := make(map[string]bool)
	var edges []edge
	for _, r := range p.Rules {
		if r.IsEGD {
			for _, l := range r.Body {
				if l.Kind == LAtom || l.Kind == LNegAtom {
					preds[l.Atom.Pred] = true
				}
			}
			continue
		}
		hasAggAssign := false
		for _, l := range r.Body {
			if l.Kind == LAggAssign {
				hasAggAssign = true
			}
		}
		heads := r.headPreds()
		for _, h := range heads {
			preds[h] = true
		}
		// Heads of one rule are forced into the same stratum.
		for i := 1; i < len(heads); i++ {
			edges = append(edges, edge{from: heads[0], to: heads[i]})
			edges = append(edges, edge{from: heads[i], to: heads[0]})
		}
		for _, l := range r.Body {
			if l.Kind != LAtom && l.Kind != LNegAtom {
				continue
			}
			preds[l.Atom.Pred] = true
			for _, h := range heads {
				edges = append(edges, edge{
					from:    l.Atom.Pred,
					to:      h,
					special: l.Kind == LNegAtom || hasAggAssign,
				})
			}
		}
	}

	names := make([]string, 0, len(preds))
	for p := range preds {
		names = append(names, p)
	}
	sort.Strings(names)
	id := make(map[string]int, len(names))
	for i, n := range names {
		id[n] = i
	}

	// Tarjan SCC.
	n := len(names)
	adj := make([][]edge, n)
	for _, e := range edges {
		adj[id[e.from]] = append(adj[id[e.from]], e)
	}
	index := make([]int, n)
	low := make([]int, n)
	onstk := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	counter, ncomp := 0, 0
	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onstk[v] = true
		for _, e := range adj[v] {
			w := id[e.to]
			if index[w] == -1 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onstk[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onstk[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			strongconnect(v)
		}
	}

	// Special edges inside an SCC are stratification violations.
	for _, e := range edges {
		if e.special && comp[id[e.from]] == comp[id[e.to]] {
			return nil, 0, fmt.Errorf(
				"datalog: program is not stratified: predicate %s depends on %s through negation or head-binding aggregation inside a recursive cycle",
				e.to, e.from)
		}
	}

	// Longest-path strata over the condensation: special edges add 1.
	stratum := make([]int, ncomp)
	changed := true
	for iter := 0; changed; iter++ {
		if iter > ncomp+1 {
			return nil, 0, fmt.Errorf("datalog: internal error: stratification did not converge")
		}
		changed = false
		for _, e := range edges {
			cf, ct := comp[id[e.from]], comp[id[e.to]]
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

	strataOf = make(map[string]int, n)
	maxS := 0
	for i, name := range names {
		s := stratum[comp[i]]
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
