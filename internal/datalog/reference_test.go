package datalog

// The reference chase: a program's model computed straight from the
// definitions, the semantics EquivCheck holds the engine to. It shares the
// AST, the parser and Val (Key, Compare) with the engine and nothing else —
// no interner, no indexes, no deltas, no parallelism, no compiled plan:
// every stratum is re-evaluated to saturation, rule by rule, by a
// nested-loop join over the whole database, and the strata, the literal
// schedule, comparisons and the built-in functions are its own.
//
// Existentials are Skolem terms of (rule, frontier values, variable); an
// aggregate keeps the best argument per contributor key and folds a group's
// contributors in Key() order; EGDs run after saturation, unify labelled
// nulls and report any other mismatch as a violation, and the chase
// saturates again under the substitution until no EGD unifies. Values are
// told apart by Key(), with -0 read as 0: one Key, one value.

import (
	"fmt"
	"math"
	"sort"
)

type refFact struct {
	t    Tuple
	keys []string // keys[i] is t[i].Key()
}

type refVal struct {
	v Val
	k string
}

// refModel is a reference run's result: facts by predicate in the order the
// chase derived them, and the violations.
type refModel struct {
	rels  map[string][]refFact
	has   map[string]map[string]bool // predicate -> Tuple.Key() -> present
	n     int
	viols []Violation
}

func (m *refModel) add(pred string, t Tuple) bool {
	t = refCanonTuple(t)
	k := t.Key()
	set := m.has[pred]
	if set == nil {
		set = make(map[string]bool)
		m.has[pred] = set
	}
	if set[k] {
		return false
	}
	set[k] = true
	m.rels[pred] = append(m.rels[pred], refFactOf(t))
	m.n++
	return true
}

func refFactOf(t Tuple) refFact {
	keys := make([]string, len(t))
	for i, v := range t {
		keys[i] = v.Key()
	}
	return refFact{t, keys}
}

// refCanon reads -0 as 0: Key() spells them apart, Compare does not.
func refCanon(v Val) Val {
	switch v.Kind() {
	case KNum:
		if v.NumVal() == 0 {
			return Num(0)
		}
	case KList:
		elems := make([]Val, len(v.Elems()))
		for i, e := range v.Elems() {
			elems[i] = refCanon(e)
		}
		return List(elems...)
	}
	return v
}

func refCanonTuple(t Tuple) Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		out[i] = refCanon(v)
	}
	return out
}

// refStrata gives every predicate its level: a positive body atom puts the
// head at least at its level, a negated one — and every body atom of a rule
// whose aggregate binds a head variable — strictly above it, and the heads
// of one rule share a level. Levels only rise; a program whose levels pass
// the number of rules has such a dependency on a cycle and is refused.
func refStrata(p *Program) (map[string]int, error) {
	level := make(map[string]int)
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			if r.IsEGD {
				continue
			}
			strict := false
			for _, l := range r.Body {
				strict = strict || l.Kind == LAggAssign
			}
			need := 0
			for _, h := range r.Heads {
				need = max(need, level[h.Pred])
			}
			for _, l := range r.Body {
				if l.Kind == LAtom && !strict {
					need = max(need, level[l.Atom.Pred])
				} else if l.Kind == LAtom || l.Kind == LNegAtom {
					need = max(need, level[l.Atom.Pred]+1)
				}
			}
			for _, h := range r.Heads {
				if level[h.Pred] < need {
					level[h.Pred] = need
					changed = true
				}
				if need > len(p.Rules) {
					return nil, fmt.Errorf("reference: %s is negated or aggregated through recursion", h.Pred)
				}
			}
		}
	}
	return level, nil
}

// refSchedule orders a rule body: repeatedly the first literal, in source
// order, whose inputs are bound — a positive atom any time, a negated atom,
// a comparison or an assignment's expression once its variables are.
// Aggregates are left out; the aggregate step follows the whole body.
func refSchedule(r *Rule) ([]int, error) {
	bound := make(map[string]bool)
	ready := func(e Expr) bool {
		ok := true
		ExprVars(e, func(v string) { ok = ok && bound[v] })
		return ok
	}
	var order []int
	done := make([]bool, len(r.Body))
	for {
		picked := -1
		pending := false
		for i, l := range r.Body {
			if done[i] || l.Kind == LAggAssign || l.Kind == LAggCond {
				continue
			}
			pending = true
			ok := false
			switch l.Kind {
			case LAtom:
				ok = true
			case LNegAtom:
				ok = true
				for _, t := range l.Atom.Args {
					ok = ok && (t.Kind == TConst || bound[t.Name])
				}
			case LCmp:
				ok = ready(l.L) && ready(l.R)
			case LAssign:
				ok = ready(l.AssignE)
			}
			if ok {
				picked = i
				break
			}
		}
		if !pending {
			return order, nil
		}
		if picked < 0 {
			return nil, fmt.Errorf("reference: no body literal of %s can run", r)
		}
		done[picked] = true
		order = append(order, picked)
		switch l := r.Body[picked]; l.Kind {
		case LAtom:
			for _, t := range l.Atom.Args {
				if t.Kind == TVar {
					bound[t.Name] = true
				}
			}
		case LAssign:
			bound[l.Var] = true
		}
	}
}

type refEnv map[string]refVal

func refTerm(t Term, env refEnv) (refVal, error) {
	if t.Kind == TConst {
		v := refCanon(t.Val)
		return refVal{v, v.Key()}, nil
	}
	b, ok := env[t.Name]
	if !ok {
		return refVal{}, fmt.Errorf("reference: unbound variable %s", t.Name)
	}
	return b, nil
}

// refBuiltins are the eleven functions, from their definitions.
var refBuiltins = map[string]func(args []Val) (Val, error){
	"abs":   refNum(1, func(x []float64) (float64, bool) { return math.Abs(x[0]), true }),
	"sqrt":  refNum(1, func(x []float64) (float64, bool) { return math.Sqrt(x[0]), x[0] >= 0 }),
	"floor": refNum(1, func(x []float64) (float64, bool) { return math.Floor(x[0]), true }),
	"ceil":  refNum(1, func(x []float64) (float64, bool) { return math.Ceil(x[0]), true }),
	"exp":   refNum(1, func(x []float64) (float64, bool) { return math.Exp(x[0]), true }),
	"log":   refNum(1, func(x []float64) (float64, bool) { return math.Log(x[0]), x[0] > 0 }),
	"pow":   refNum(2, func(x []float64) (float64, bool) { return math.Pow(x[0], x[1]), true }),
	"min": refNum(-1, func(x []float64) (float64, bool) {
		best := x[0]
		for _, v := range x {
			if v < best {
				best = v
			}
		}
		return best, true
	}),
	"max": refNum(-1, func(x []float64) (float64, bool) {
		best := x[0]
		for _, v := range x {
			if v > best {
				best = v
			}
		}
		return best, true
	}),
	"concat": func(a []Val) (Val, error) {
		s := ""
		for _, v := range a {
			switch v.Kind() {
			case KStr:
				s += v.StrVal()
			case KNum:
				s += fmt.Sprintf("%g", v.NumVal())
			default:
				return Val{}, fmt.Errorf("reference: concat of %s", v)
			}
		}
		return Str(s), nil
	},
	"len": func(a []Val) (Val, error) {
		switch {
		case len(a) == 1 && a[0].Kind() == KStr:
			return Num(float64(len(a[0].StrVal()))), nil
		case len(a) == 1 && a[0].Kind() == KList:
			return Num(float64(len(a[0].Elems()))), nil
		}
		return Val{}, fmt.Errorf("reference: len%v", a)
	},
}

// refNum is a numeric function of arity arguments (any number but none if
// negative) defined where ok.
func refNum(arity int, f func(x []float64) (r float64, ok bool)) func([]Val) (Val, error) {
	return func(a []Val) (Val, error) {
		x := make([]float64, len(a))
		for i, v := range a {
			if v.Kind() != KNum {
				return Val{}, fmt.Errorf("reference: non-number argument %s", v)
			}
			x[i] = v.NumVal()
		}
		if len(a) == 0 || (arity > 0 && len(a) != arity) {
			return Val{}, fmt.Errorf("reference: %d arguments", len(a))
		}
		if r, ok := f(x); ok {
			return Num(r), nil
		}
		return Val{}, fmt.Errorf("reference: argument %v out of the domain", x)
	}
}

func refExpr(e Expr, env refEnv) (Val, error) {
	switch x := e.(type) {
	case ExprTerm:
		b, err := refTerm(x.T, env)
		return b.v, err
	case ExprNeg:
		v, err := refExpr(x.E, env)
		if err != nil || v.Kind() != KNum {
			return Val{}, fmt.Errorf("reference: -%s: %v", v, err)
		}
		return Num(-v.NumVal()), nil
	case ExprCall:
		f, ok := refBuiltins[x.Name]
		if !ok {
			return Val{}, fmt.Errorf("reference: unknown function %s", x.Name)
		}
		args := make([]Val, len(x.Args))
		for i, a := range x.Args {
			v, err := refExpr(a, env)
			if err != nil {
				return Val{}, err
			}
			args[i] = v
		}
		return f(args)
	case ExprBin:
		l, err := refExpr(x.L, env)
		if err != nil {
			return Val{}, err
		}
		r, err := refExpr(x.R, env)
		if err != nil {
			return Val{}, err
		}
		if l.Kind() != KNum || r.Kind() != KNum || (x.Op == "/" && r.NumVal() == 0) {
			return Val{}, fmt.Errorf("reference: %s %s %s", l, x.Op, r)
		}
		a, b := l.NumVal(), r.NumVal()
		switch x.Op {
		case "+":
			return Num(a + b), nil
		case "-":
			return Num(a - b), nil
		case "*":
			return Num(a * b), nil
		case "/":
			return Num(a / b), nil
		}
	}
	return Val{}, fmt.Errorf("reference: bad expression %v", e)
}

// refCompare is a comparison literal: equality and order are Compare's,
// membership asks a set, and order is refused on sets.
func refCompare(op string, l, r Val) (bool, error) {
	if op == OpIn {
		if r.Kind() == KList {
			for _, e := range r.Elems() {
				if Compare(e, l) == 0 {
					return true, nil
				}
			}
		}
		return false, nil
	}
	c := Compare(l, r)
	holds, ok := map[string]bool{OpEq: c == 0, OpNe: c != 0, OpLt: c < 0, OpLe: c <= 0, OpGt: c > 0, OpGe: c >= 0}[op]
	if !ok || (op != OpEq && op != OpNe && (l.Kind() == KList || r.Kind() == KList)) {
		return false, fmt.Errorf("reference: %s %s %s", l, op, r)
	}
	return holds, nil
}

// refMatch binds an atom's variables to a fact's values, or reports that
// they do not fit; it returns the variables it bound.
func refMatch(a *Atom, f refFact, env refEnv) ([]string, bool) {
	if len(a.Args) != len(f.t) {
		return nil, false
	}
	var bound []string
	for i, t := range a.Args {
		want, ok := "", true
		if t.Kind == TConst {
			want = refCanon(t.Val).Key()
		} else if b, isBound := env[t.Name]; isBound {
			want = b.k
		} else {
			env[t.Name] = refVal{f.t[i], f.keys[i]}
			bound = append(bound, t.Name)
			continue
		}
		if ok = want == f.keys[i]; !ok {
			for _, v := range bound {
				delete(env, v)
			}
			return nil, false
		}
	}
	return bound, true
}

// refBody calls yield once per match of the scheduled literals over m, with
// the matched facts in the order the schedule met them.
func refBody(m *refModel, r *Rule, order []int, env refEnv, yield func(used []refFact) error) error {
	var used []refFact
	var step func(i int) error
	step = func(i int) error {
		if i == len(order) {
			return yield(used)
		}
		l := &r.Body[order[i]]
		switch l.Kind {
		case LAtom:
			for _, f := range m.rels[l.Atom.Pred] {
				bound, ok := refMatch(l.Atom, f, env)
				if !ok {
					continue
				}
				used = append(used, f)
				err := step(i + 1)
				used = used[:len(used)-1]
				for _, v := range bound {
					delete(env, v)
				}
				if err != nil {
					return err
				}
			}
			return nil
		case LNegAtom:
			t := make(Tuple, len(l.Atom.Args))
			for j, a := range l.Atom.Args {
				b, err := refTerm(a, env)
				if err != nil {
					return err
				}
				t[j] = b.v
			}
			if m.has[l.Atom.Pred][t.Key()] {
				return nil
			}
			return step(i + 1)
		case LCmp:
			lv, err := refExpr(l.L, env)
			if err != nil {
				return err
			}
			rv, err := refExpr(l.R, env)
			if err != nil {
				return err
			}
			if ok, err := refCompare(l.Op, lv, rv); !ok || err != nil {
				return err
			}
			return step(i + 1)
		case LAssign:
			v, err := refExpr(l.AssignE, env)
			if err != nil {
				return err
			}
			v = refCanon(v)
			if old, isBound := env[l.Var]; isBound {
				if Compare(old.v, v) != 0 {
					return nil
				}
				return step(i + 1)
			}
			env[l.Var] = refVal{v, v.Key()}
			err = step(i + 1)
			delete(env, l.Var)
			return err
		}
		return fmt.Errorf("reference: literal %s cannot run in a body walk", l)
	}
	return step(0)
}

type refChase struct {
	p      *Program
	rounds int // the cap on saturation iterations and on EGD passes
	facts  int // the cap on the database's size
	m      *refModel
	orders [][]int
	skolem map[string]Val
	nulls  uint64
	subst  map[uint64]Val
}

func (c *refChase) resolve(v Val) Val {
	for seen := 0; v.Kind() == KNull && seen <= len(c.subst); seen++ {
		next, ok := c.subst[v.NullID()]
		if !ok {
			break
		}
		v = next
	}
	if v.Kind() == KList {
		elems := make([]Val, len(v.Elems()))
		for i, e := range v.Elems() {
			elems[i] = c.resolve(e)
		}
		return List(elems...)
	}
	return v
}

// emit inserts the rule's heads under env, each existential variable a
// labelled null named by (rule, frontier values, variable).
func (c *refChase) emit(ri int, env refEnv) (bool, error) {
	r := &c.p.Rules[ri]
	if len(r.Existential) > 0 {
		exist := make(map[string]bool)
		for _, x := range r.Existential {
			exist[x] = true
		}
		var frontier []string
		for _, h := range r.Heads {
			for _, t := range h.Args {
				if t.Kind == TVar && !exist[t.Name] {
					if _, ok := env[t.Name]; ok {
						frontier = append(frontier, t.Name+"="+env[t.Name].k)
					}
				}
			}
		}
		sort.Strings(frontier)
		base := fmt.Sprint(ri, frontier)
		for _, x := range r.Existential {
			null, ok := c.skolem[base+"!"+x]
			if !ok {
				c.nulls++
				null = NullVal(c.nulls)
				c.skolem[base+"!"+x] = null
			}
			v := refCanon(c.resolve(null))
			env[x] = refVal{v, v.Key()}
		}
		defer func() {
			for _, x := range r.Existential {
				delete(env, x)
			}
		}()
	}
	added := false
	for _, h := range r.Heads {
		t := make(Tuple, len(h.Args))
		for i, a := range h.Args {
			b, err := refTerm(a, env)
			if err != nil {
				return added, err
			}
			t[i] = b.v
		}
		added = c.m.add(h.Pred, t) || added
	}
	return added, nil
}

type refGroup struct {
	env     refEnv
	contrib map[string]Val // contributor key -> best argument
}

// aggregate evaluates an aggregate rule over the whole database: every
// match contributes its argument to its group under its contributor key,
// the best argument per key kept, and each group emits its heads with the
// contributions folded in Key() order.
func (c *refChase) aggregate(ri int, l *Literal) (bool, error) {
	r := &c.p.Rules[ri]
	skip := map[string]bool{l.Var: l.Kind == LAggAssign}
	for _, x := range r.Existential {
		skip[x] = true
	}
	var gvars []string
	for _, h := range r.Heads {
		for _, t := range h.Args {
			if t.Kind == TVar && !skip[t.Name] {
				skip[t.Name] = true
				gvars = append(gvars, t.Name)
			}
		}
	}
	groups := make(map[string]*refGroup)
	env := refEnv{}
	err := refBody(c.m, r, c.orders[ri], env, func([]refFact) error {
		genv, gkey := refEnv{}, ""
		for _, v := range gvars {
			b, ok := env[v]
			if !ok {
				return fmt.Errorf("reference: group variable %s unbound", v)
			}
			genv[v] = b
			gkey += b.k + "|"
		}
		g := groups[gkey]
		if g == nil {
			g = &refGroup{env: genv, contrib: make(map[string]Val)}
			groups[gkey] = g
		}
		cv, err := refExpr(l.Agg.Contrib, env)
		if err != nil {
			return err
		}
		arg := Num(1)
		if l.Agg.Fn != AggCount {
			if arg, err = refExpr(l.Agg.Arg, env); err != nil {
				return err
			}
			if l.Agg.Fn != AggUnion && arg.Kind() != KNum {
				return fmt.Errorf("reference: %s over %s", l.Agg.Fn, arg)
			}
		}
		ck := refCanon(cv).Key()
		old, seen := g.contrib[ck]
		switch {
		case l.Agg.Fn == AggUnion && seen:
			g.contrib[ck] = List(append(old.Elems(), arg)...)
		case l.Agg.Fn == AggUnion:
			g.contrib[ck] = List(arg)
		case !seen || Compare(arg, old) > 0:
			g.contrib[ck] = arg
		}
		return nil
	})
	if err != nil {
		return false, err
	}
	added := false
	for _, g := range groups {
		keys := make([]string, 0, len(g.contrib))
		for k := range g.contrib {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		agg, acc, all := Num(float64(len(keys))), map[AggFn]float64{AggProd: 1}[l.Agg.Fn], []Val(nil)
		for _, k := range keys {
			switch v := g.contrib[k]; l.Agg.Fn {
			case AggSum:
				acc += v.NumVal()
			case AggProd:
				acc *= v.NumVal()
			case AggUnion:
				all = append(all, v.Elems()...)
			}
		}
		switch l.Agg.Fn {
		case AggSum, AggProd:
			agg = refCanon(Num(acc))
		case AggUnion:
			agg = refCanon(List(all...))
		}
		if l.Kind == LAggAssign {
			g.env[l.Var] = refVal{agg, agg.Key()}
		} else if rhs, err := refExpr(l.R, g.env); err != nil {
			return added, err
		} else if ok, err := refCompare(l.Op, agg, rhs); err != nil || !ok {
			if err != nil {
				return added, err
			}
			continue
		}
		a, err := c.emit(ri, g.env)
		if added = added || a; err != nil {
			return added, err
		}
	}
	return added, nil
}

// refAgg returns a rule's aggregate literal, or nil.
func refAgg(r *Rule) *Literal {
	for i := range r.Body {
		if k := r.Body[i].Kind; k == LAggAssign || k == LAggCond {
			return &r.Body[i]
		}
	}
	return nil
}

// saturate re-evaluates the rules of one level until an evaluation of all
// of them adds nothing.
func (c *refChase) saturate(rules []int) error {
	for iter := 0; ; iter++ {
		if iter > c.rounds || c.m.n > c.facts {
			return fmt.Errorf("reference: chase did not saturate within %d rounds and %d facts", c.rounds, c.facts)
		}
		added := false
		for _, ri := range rules {
			r := &c.p.Rules[ri]
			if l := refAgg(r); l != nil {
				a, err := c.aggregate(ri, l)
				if added = added || a; err != nil {
					return err
				}
				continue
			}
			env := refEnv{}
			err := refBody(c.m, r, c.orders[ri], env, func([]refFact) error {
				a, err := c.emit(ri, env)
				added = added || a
				return err
			})
			if err != nil {
				return err
			}
		}
		if !added {
			return nil
		}
	}
}

// egds runs every EGD over the saturated database, in program order; it
// reports whether any unified a null.
func (c *refChase) egds(seen map[string]bool) (bool, error) {
	unified := false
	for ri := range c.p.Rules {
		r := &c.p.Rules[ri]
		if !r.IsEGD {
			continue
		}
		env := refEnv{}
		err := refBody(c.m, r, c.orders[ri], env, func([]refFact) error {
			if refAgg(r) != nil {
				return fmt.Errorf("reference: aggregate in an EGD body")
			}
			lb, err := refTerm(r.EGDL, env)
			if err != nil {
				return err
			}
			rb, err := refTerm(r.EGDR, env)
			if err != nil {
				return err
			}
			a, b := c.resolve(lb.v), c.resolve(rb.v)
			switch {
			case Compare(a, b) == 0:
			case a.Kind() == KNull:
				c.subst[a.NullID()], unified = b, true
			case b.Kind() == KNull:
				c.subst[b.NullID()], unified = a, true
			default:
				if k := r.String() + "|" + a.Key() + "|" + b.Key(); !seen[k] {
					seen[k] = true
					c.m.viols = append(c.m.viols, Violation{Rule: r.String(), A: a, B: b})
				}
			}
			return nil
		})
		if err != nil {
			return false, err
		}
	}
	return unified, nil
}

// refRun computes p's model over the input facts, under opt's caps on
// facts and rounds (the engine's defaults when zero).
func refRun(p *Program, edb map[string][]Tuple, opt *Options) (*refModel, error) {
	c := &refChase{
		p:      p,
		rounds: 100_000,
		facts:  1_000_000,
		m:      &refModel{rels: make(map[string][]refFact), has: make(map[string]map[string]bool)},
		skolem: make(map[string]Val),
		subst:  make(map[uint64]Val),
	}
	if opt != nil && opt.MaxRounds > 0 {
		c.rounds = opt.MaxRounds
	}
	if opt != nil && opt.MaxFacts > 0 {
		c.facts = opt.MaxFacts
	}
	level, err := refStrata(p)
	if err != nil {
		return nil, err
	}
	for pred, ts := range edb {
		for _, t := range ts {
			for _, v := range t {
				if v.Kind() == KNull {
					c.nulls = max(c.nulls, v.NullID())
				}
			}
			c.m.add(pred, t)
		}
	}
	c.orders = make([][]int, len(p.Rules))
	byLevel := make(map[int][]int)
	top := 0
	for ri := range p.Rules {
		r := &p.Rules[ri]
		if c.orders[ri], err = refSchedule(r); err != nil {
			return nil, err
		}
		switch {
		case r.IsEGD:
		case len(r.Body) == 0:
			for _, h := range r.Heads {
				t := make(Tuple, len(h.Args))
				for i, a := range h.Args {
					t[i] = a.Val
				}
				c.m.add(h.Pred, t)
			}
		default:
			lv := level[r.Heads[0].Pred]
			byLevel[lv] = append(byLevel[lv], ri)
			top = max(top, lv)
		}
	}
	seen := make(map[string]bool)
	for pass := 0; ; pass++ {
		if pass > c.rounds {
			return nil, fmt.Errorf("reference: EGDs did not converge")
		}
		for lv := 0; lv <= top; lv++ {
			if err := c.saturate(byLevel[lv]); err != nil {
				return nil, err
			}
		}
		unified, err := c.egds(seen)
		if err != nil {
			return nil, err
		}
		if !unified {
			return c.m, nil
		}
		old := c.m
		c.m = &refModel{rels: make(map[string][]refFact), has: make(map[string]map[string]bool), viols: old.viols}
		for pred, fs := range old.rels {
			for _, f := range fs {
				t := make(Tuple, len(f.t))
				for i, v := range f.t {
					t[i] = c.resolve(v)
				}
				c.m.add(pred, t)
			}
		}
	}
}
