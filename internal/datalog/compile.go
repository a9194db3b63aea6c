package datalog

import (
	"fmt"
	"sort"
)

// This file is the plan layer of the evaluator: each rule with a body — TGD
// or EGD — is compiled once per run into a cRule: variables become dense env
// slots, constants become interned ids, and every body atom gets a
// join-index selection computed from which of its columns are statically
// bound at its position in the literal order. The walk engine (engine.go)
// then runs entirely on uint32 ids: no key strings, no map environments, no
// per-candidate allocation.

// cArg is one compiled atom argument: an interned constant or an env slot.
type cArg struct {
	slot int    // -1 for constants
	vid  uint32 // interned constant id when slot == -1
	bind bool   // variable occurrence that binds its slot (vs. checks it)
	name string // variable name, for seed-identical error messages
}

// cOperand is an expression compiled for the walk. A plain variable is its
// env slot and a constant its interned id, so the walk compares, copies and
// keys them as ids and reads a number straight off the interner columns —
// no Val is decoded and nothing is interned back. Any other expression is
// computed: evalExprS evaluates it and whoever needs its id interns it.
type cOperand struct {
	e        Expr
	computed bool
	arith    bool // computed from + - * / and negation alone: evalNumS applies
	arg      cArg // the slot or the constant when !computed
}

func pureArith(e Expr) bool {
	switch x := e.(type) {
	case ExprTerm:
		return true
	case ExprNeg:
		return pureArith(x.E)
	case ExprBin:
		return pureArith(x.L) && pureArith(x.R)
	}
	return false
}

func (ev *evaluator) compileOperand(c *cRule, e Expr) cOperand {
	t, ok := e.(ExprTerm)
	switch {
	case !ok:
		return cOperand{e: e, computed: true, arith: pureArith(e)}
	case t.T.Kind == TConst:
		return cOperand{e: e, arg: cArg{slot: -1, vid: ev.db.in.intern(t.T.Val)}}
	}
	return cOperand{e: e, arg: cArg{slot: c.slotOf[t.T.Name], name: t.T.Name}}
}

// cStep is one body literal in evaluation order. Atom steps carry the
// statically selected join index; rel/idx are resolved by resolvePlan before
// the rule runs (applySubst replaces the database between chase passes).
type cStep struct {
	kind LitKind
	li   int // index into r.Body
	lit  *Literal

	// LAtom / LNegAtom:
	pred string
	pid  uint32
	args []cArg
	// mask has bit i set when column i is bound before this step (a
	// constant or an already-bound variable) — the join-index selection
	// rule. Columns ≥ 64 are treated as unbound. Intra-atom repeated
	// variables do not contribute: their constraint is row-internal and
	// cannot be probed.
	mask   uint64
	nBound int

	// LCmp: l Op r. LAssign: assignSlot = l.
	l, r       cOperand
	assignSlot int
	preBound   bool // slot statically bound before this step: compare, don't bind

	// resolved by resolvePlan:
	rel *relation
	idx *joinIndex
}

// cHead is one compiled rule head.
type cHead struct {
	pred      string
	pid       uint32
	args      []cArg
	groundRow []uint32 // non-nil when every argument is a constant
	rel       *relation
}

// cRule is one compiled rule. Fact rules have no body to compile; their
// heads are inserted once, before the first pass.
type cRule struct {
	ri     int
	r      *Rule
	order  []int
	nSlots int
	slotOf map[string]int

	steps  []cStep // in evaluation order, aggregate literal excluded
	aggLit int     // body index of the aggregate literal, -1 if none
	heads  []cHead // empty for an EGD
	egd    [2]cArg // the two sides of an EGD's equality

	// skolem/emission metadata
	skolemPrefix  string // "r<ri>|"
	frontier      []string
	frontierSlots []int
	existSlots    []int // env slots of r.Existential, in order

	// aggregation metadata
	groupVars  []string
	groupSlots []int
	aggVarSlot int      // slot of the LAggAssign result variable, -1 otherwise
	aggArg     cOperand // the aggregated argument; unused by mcount
	aggContrib cOperand // the contributor

	// nUsed is the number of positive body atoms: the body fact ids every
	// complete match carries, the fixed width of a provenance entry.
	nUsed int

	// optimization eligibility
	ground     bool // all-constant heads, pure-atom body: first-witness early stop
	pureAtoms  bool // body is only (neg)atoms: empty-relation skip cannot hide errors
	parallelOK bool // no aggregate/existential, heads disjoint from body: delta partitioning
	headPreds  map[string]bool
}

// compileRule lowers one rule onto the slot/vid plane. Constants are
// interned into the run database's interner, which is shared across
// applySubst rewrites, so the compiled form stays valid for the whole run.
func (ev *evaluator) compileRule(ri int) *cRule {
	r := &ev.prog.Rules[ri]
	order := ev.orders[ri]
	c := &cRule{
		ri:           ri,
		r:            r,
		order:        order,
		slotOf:       make(map[string]int),
		aggLit:       -1,
		aggVarSlot:   -1,
		skolemPrefix: fmt.Sprintf("r%d|", ri),
		headPreds:    make(map[string]bool),
	}
	slot := func(name string) int {
		s, ok := c.slotOf[name]
		if !ok {
			s = c.nSlots
			c.slotOf[name] = s
			c.nSlots++
		}
		return s
	}
	// Pre-allocate slots for every variable the rule can mention, so that
	// expression evaluation can distinguish "unbound" from "unknown".
	exprSlots := func(e Expr) {
		var names []string
		ExprVars(e, func(n string) { names = append(names, n) })
		sort.Strings(names)
		for _, n := range names {
			slot(n)
		}
	}
	for _, l := range r.Body {
		switch l.Kind {
		case LAtom, LNegAtom:
			for _, t := range l.Atom.Args {
				if t.Kind == TVar {
					slot(t.Name)
				}
			}
		case LCmp:
			exprSlots(l.L)
			exprSlots(l.R)
		case LAssign:
			slot(l.Var)
			exprSlots(l.AssignE)
		case LAggAssign, LAggCond:
			if l.Kind == LAggAssign {
				slot(l.Var)
			}
			exprSlots(l.R)
			if l.Agg != nil {
				exprSlots(l.Agg.Arg)
				exprSlots(l.Agg.Contrib)
			}
		}
	}
	for _, h := range r.Heads {
		for _, t := range h.Args {
			if t.Kind == TVar {
				slot(t.Name)
			}
		}
	}

	for i, l := range r.Body {
		if l.Kind == LAggAssign || l.Kind == LAggCond {
			c.aggLit = i
			if l.Kind == LAggAssign {
				c.aggVarSlot = c.slotOf[l.Var]
			}
		}
	}

	// Walk the literal order simulating boundness, mirroring exactly what
	// the map-env engine bound at each step.
	bound := make(map[string]bool)
	for _, li := range order {
		l := &r.Body[li]
		if li == c.aggLit {
			break // the aggregate is always last; the walk stops before it
		}
		st := cStep{kind: l.Kind, li: li, lit: l}
		switch l.Kind {
		case LAtom, LNegAtom:
			st.pred = l.Atom.Pred
			st.pid = ev.pid(l.Atom.Pred)
			st.args = make([]cArg, len(l.Atom.Args))
			intra := make(map[string]bool)
			for i, t := range l.Atom.Args {
				if t.Kind == TConst {
					st.args[i] = cArg{slot: -1, vid: ev.db.in.intern(t.Val)}
					if i < 64 {
						st.mask |= 1 << uint(i)
						st.nBound++
					}
					continue
				}
				a := cArg{slot: c.slotOf[t.Name], name: t.Name}
				if bound[t.Name] {
					if i < 64 {
						st.mask |= 1 << uint(i)
						st.nBound++
					}
				} else if intra[t.Name] {
					// Row-internal equality: checkable, not probeable.
				} else {
					a.bind = true
					intra[t.Name] = true
				}
				st.args[i] = a
			}
			if l.Kind == LAtom {
				c.nUsed++
				for _, t := range l.Atom.Args {
					if t.Kind == TVar {
						bound[t.Name] = true
					}
				}
			} else {
				// Negated atoms bind nothing; their args are ground lookups.
				st.mask, st.nBound = 0, 0
				for i := range st.args {
					st.args[i].bind = false
				}
			}
		case LCmp:
			st.l, st.r = ev.compileOperand(c, l.L), ev.compileOperand(c, l.R)
		case LAssign:
			st.l = ev.compileOperand(c, l.AssignE)
			st.assignSlot = c.slotOf[l.Var]
			st.preBound = bound[l.Var]
			bound[l.Var] = true
		}
		c.steps = append(c.steps, st)
	}

	// emitArg compiles a term read when a body match is complete.
	emitArg := func(t Term) cArg {
		if t.Kind == TConst {
			return cArg{slot: -1, vid: ev.db.in.intern(t.Val)}
		}
		return cArg{slot: slot(t.Name), name: t.Name}
	}
	if r.IsEGD {
		c.egd = [2]cArg{emitArg(r.EGDL), emitArg(r.EGDR)}
	}
	for _, h := range r.Heads {
		ch := cHead{pred: h.Pred, pid: ev.pid(h.Pred), args: make([]cArg, len(h.Args))}
		allConst := true
		for i, t := range h.Args {
			ch.args[i] = emitArg(t)
			allConst = allConst && t.Kind == TConst
		}
		if allConst {
			ch.groundRow = make([]uint32, len(ch.args))
			for i, a := range ch.args {
				ch.groundRow[i] = a.vid
			}
		}
		c.heads = append(c.heads, ch)
		c.headPreds[h.Pred] = true
	}

	ex := make(map[string]bool, len(r.Existential))
	for _, x := range r.Existential {
		ex[x] = true
		c.existSlots = append(c.existSlots, c.slotOf[x])
	}
	// Skolem frontier: every bound head-variable occurrence, sorted, duplicates kept.
	for _, h := range r.Heads {
		for _, t := range h.Args {
			if t.Kind == TVar && !ex[t.Name] {
				c.frontier = append(c.frontier, t.Name)
			}
		}
	}
	sort.Strings(c.frontier)
	c.frontierSlots = make([]int, len(c.frontier))
	for i, n := range c.frontier {
		c.frontierSlots[i] = c.slotOf[n]
	}

	if c.aggLit >= 0 {
		c.groupVars = groupVarsOf(r, &r.Body[c.aggLit])
		c.groupSlots = make([]int, len(c.groupVars))
		for i, n := range c.groupVars {
			c.groupSlots[i] = c.slotOf[n]
		}
		if agg := r.Body[c.aggLit].Agg; agg.Fn != AggCount {
			c.aggArg = ev.compileOperand(c, agg.Arg)
		}
		c.aggContrib = ev.compileOperand(c, r.Body[c.aggLit].Agg.Contrib)
	}

	c.pureAtoms = c.aggLit == -1
	for _, l := range r.Body {
		if l.Kind != LAtom && l.Kind != LNegAtom {
			c.pureAtoms = false
		}
	}
	c.ground = c.pureAtoms && len(r.Existential) == 0
	if c.ground {
		for _, h := range c.heads {
			if h.groundRow == nil {
				c.ground = false
				break
			}
		}
	}
	c.parallelOK = c.aggLit == -1 && len(r.Existential) == 0 && !c.ground
	for _, l := range r.Body {
		if (l.Kind == LAtom || l.Kind == LNegAtom) && c.headPreds[l.Atom.Pred] {
			// Self-inserts must stay visible mid-pass: a positive atom over a
			// head predicate can match rows emitted earlier in the same pass,
			// and a negated one can stop matching after such an emission.
			// Buffered parallel emission would defer both effects.
			c.parallelOK = false
		}
	}
	return c
}

// groupVarsOf lists, in deterministic order, the head variables that form
// the aggregation group of rule r: everything except the aggregate result
// variable and the existential variables.
func groupVarsOf(r *Rule, l *Literal) []string {
	skip := map[string]bool{}
	if l.Kind == LAggAssign {
		skip[l.Var] = true
	}
	for _, x := range r.Existential {
		skip[x] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, h := range r.Heads {
		for _, t := range h.Args {
			if t.Kind == TVar && !skip[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// probeHash computes the index key for a step's bound columns under env.
// It must agree with joinIndex.keyOf for any row whose masked columns carry
// exactly these values, which holds because both fold the same (column,
// vid) sequence in ascending column order.
func probeHash(st *cStep, env []uint32) uint64 {
	h := uint64(14695981039346656037)
	for i, a := range st.args {
		if i >= 64 || st.mask&(1<<uint(i)) == 0 {
			continue
		}
		v := a.vid
		if a.slot >= 0 {
			v = env[a.slot]
		}
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// resolvePlan points the compiled steps and heads of the TGDs, or of the
// EGDs, at the current database's relations and builds the join indexes
// their plans selected. TGDs resolve at the start of every strata pass,
// before any rule runs, so no delta partition races index construction.
// EGDs resolve when their pass starts, over the saturated database: an
// index only they probe is built by one back-fill instead of being
// maintained through every insert of the fixpoint.
func (ev *evaluator) resolvePlan(egds bool) {
	// Every predicate the program can touch gets its relation up front, so
	// every step and head has one to point at.
	for _, r := range ev.prog.Rules {
		for _, h := range r.Heads {
			ev.db.rel(h.Pred)
		}
		for _, l := range r.Body {
			if l.Kind == LAtom || l.Kind == LNegAtom {
				ev.db.rel(l.Atom.Pred)
			}
		}
	}
	for _, c := range ev.crules {
		if c == nil || c.r.IsEGD != egds {
			continue
		}
		for i := range c.steps {
			st := &c.steps[i]
			if st.kind != LAtom && st.kind != LNegAtom {
				continue
			}
			st.rel = ev.db.rels[st.pred]
			st.idx = nil
			if st.kind == LAtom && st.mask != 0 && len(st.args) > 0 {
				st.idx = st.rel.getIndex(ev.db, len(st.args), st.mask)
			}
		}
		for i := range c.heads {
			c.heads[i].rel = ev.db.rels[c.heads[i].pred]
		}
	}
}

// pid returns the dense id of a predicate name, allocating one on first
// use. Fact ids (pid<<32 | row position) key provenance and violation
// dedup; the table lives on the evaluator so ids survive applySubst.
func (ev *evaluator) pid(pred string) uint32 {
	if id, ok := ev.predIDs[pred]; ok {
		return id
	}
	id := uint32(len(ev.predNames))
	ev.predIDs[pred] = id
	ev.predNames = append(ev.predNames, pred)
	return id
}
