package datalog

import (
	"fmt"
	"slices"
	"strings"
)

// findFact returns the row position of a fact, or false when absent or when
// any argument was never interned (in which case no stored fact can equal it).
func (db *Database) findFact(pred string, t Tuple) (uint32, bool) {
	r := db.rels[pred]
	if r == nil {
		return 0, false
	}
	row := make([]uint32, len(t))
	for i, v := range t {
		id, ok := db.in.lookup(v)
		if !ok {
			return 0, false
		}
		row[i] = id
	}
	return r.findRow(row)
}

// factID resolves a fact to its provenance id. The second result is false
// for facts whose predicate the run never assigned an id — possible only for
// extensional predicates no rule mentions, which by construction have no
// provenance entry.
func (r *Result) factID(pred string, t Tuple) (uint64, bool) {
	pid, ok := r.pids[pred]
	if !ok {
		return 0, false
	}
	pos, ok := r.db.findFact(pred, t)
	if !ok {
		return 0, false
	}
	return fid(pid, pos), true
}

// Explain renders the derivation tree of a fact: which rule produced it and
// from which body facts, recursively down to the extensional component. This
// is the “full explainability by standard logic entailment” property the
// paper claims for Vada-SA: every derived fact carries the exact rule
// binding that motivated it.
//
// It returns an error if the fact is not present in the result.
func (r *Result) Explain(pred string, args ...Val) (string, error) {
	if !r.db.Has(pred, args...) {
		return "", fmt.Errorf("datalog: fact %s%s is not derived", pred, Tuple(args))
	}
	var b strings.Builder
	f, ok := r.factID(pred, Tuple(args))
	if !ok {
		// Present but outside the rule universe: extensional by definition.
		b.WriteString(pred + Tuple(args).String() + "   [extensional]\n")
		return b.String(), nil
	}
	seen := make(map[uint64]bool)
	r.explain(&b, f, 0, seen)
	return b.String(), nil
}

func (r *Result) explain(b *strings.Builder, f uint64, depth int, seen map[uint64]bool) {
	pred := r.preds[uint32(f>>32)]
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(pred + r.db.Rows(pred).Row(int(uint32(f))).Tuple().String())
	rule, body := r.db.rels[pred].provOf(uint32(f))
	switch {
	case rule < 0:
		b.WriteString("   [extensional]\n")
		return
	case seen[f]:
		b.WriteString("   [see above]\n")
		return
	}
	seen[f] = true
	b.WriteString(fmt.Sprintf("   [rule %d: %s]\n", rule, r.rules[rule].String()))
	for _, bf := range body {
		r.explain(b, bf, depth+1, seen)
	}
}

// ProvenanceRule returns the index of the rule that first derived the fact,
// or -1 for extensional facts. The second result is false if the fact is
// absent.
func (r *Result) ProvenanceRule(pred string, args ...Val) (int, bool) {
	if !r.db.Has(pred, args...) {
		return 0, false
	}
	f, ok := r.factID(pred, Tuple(args))
	if !ok {
		return -1, true
	}
	rule, _ := r.db.rels[pred].provOf(uint32(f))
	return rule, true
}

// Binding is one solution of a query pattern: the values bound to the
// pattern's variables, in the order the variables first appear.
type Binding struct {
	Vars []string
	Vals []Val
}

// Get returns the value bound to a variable.
func (b Binding) Get(name string) (Val, bool) {
	for i, v := range b.Vars {
		if v == name {
			return b.Vals[i], true
		}
	}
	return Val{}, false
}

// Query matches a pattern — a predicate with constant and variable terms —
// against the derived database and returns all bindings, sorted by the bound
// values. Repeated variables must match equal values:
//
//	res.Query("rel", V("X"), C(Str("bank1")))   // who controls bank1?
func (r *Result) Query(pred string, pattern ...Term) []Binding {
	// The pattern is a one-atom body: compile it and match rows on ids.
	var varOrder []string
	st := cStep{args: make([]cArg, len(pattern))}
	for i, t := range pattern {
		if t.Kind == TConst {
			id, ok := r.db.in.lookup(t.Val)
			if !ok {
				return nil // a never-interned constant is in no fact
			}
			st.args[i] = cArg{slot: -1, vid: id}
			continue
		}
		s := slices.Index(varOrder, t.Name)
		if s < 0 {
			s = len(varOrder)
			varOrder = append(varOrder, t.Name)
			st.args[i].bind = true
		}
		st.args[i].slot = s
	}
	var out []Binding
	env := make([]uint32, len(varOrder))
	rows := r.db.SortedRows(pred)
	for i := 0; i < rows.Len(); i++ {
		if !matchRow(&st, rows.Row(i).ids, env) {
			continue
		}
		b := Binding{Vars: varOrder, Vals: make([]Val, len(env))}
		for j, id := range env {
			b.Vals[j] = rows.iv.val(id)
		}
		out = append(out, b)
	}
	return out
}
