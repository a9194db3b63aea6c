package datalog

// This file is a frozen copy of the pre-overhaul evaluator (string-keyed
// tuples, map-of-slices relations, byFirst join acceleration). It exists so
// the property suite can pin the rebuilt engine to the exact observable
// behaviour of the engine it replaced: fact sets, provenance answers, EGD
// violations, labelled-null identities and diagnostics. It is test-only code
// and must not be "improved" — its value is that it does not change.

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

type seedDatabase struct {
	rels  map[string]*seedRelation
	bytes int64
}

type seedRelation struct {
	facts   []Tuple
	index   map[string]int
	byFirst map[string][]int
}

func newSeedDatabase() *seedDatabase {
	return &seedDatabase{rels: make(map[string]*seedRelation)}
}

// seedFromDatabase converts a columnar database into the legacy shape,
// preserving per-relation insertion order — the order the legacy clone would
// have seen.
func seedFromDatabase(db *Database) *seedDatabase {
	s := newSeedDatabase()
	for _, pred := range db.predsInsertionSafe() {
		for _, t := range db.insertionFacts(pred) {
			s.addTuple(pred, t)
		}
	}
	return s
}

func (db *seedDatabase) addTuple(pred string, t Tuple) bool {
	r, ok := db.rels[pred]
	if !ok {
		r = &seedRelation{index: make(map[string]int), byFirst: make(map[string][]int)}
		db.rels[pred] = r
	}
	k := t.Key()
	if _, dup := r.index[k]; dup {
		return false
	}
	r.index[k] = len(r.facts)
	if len(t) > 0 {
		fk := t[0].Key()
		r.byFirst[fk] = append(r.byFirst[fk], len(r.facts))
	}
	r.facts = append(r.facts, t)
	db.bytes += seedTupleBytes(t) + int64(2*len(k)) + 2*seedMapEntryOverhead
	return true
}

const seedMapEntryOverhead = 48

// valBytes is the per-value estimate the engine used when this evaluator was
// frozen; it moved here when the interner stopped holding Val structs.
func valBytes(v Val) int64 {
	n := int64(48) // Val struct: kind, float, id, string header, slice header
	n += int64(len(v.s))
	for _, e := range v.l {
		n += valBytes(e)
	}
	return n
}

func seedTupleBytes(t Tuple) int64 {
	n := int64(24)
	for _, v := range t {
		n += valBytes(v)
	}
	return n
}

func (db *seedDatabase) EstimatedBytes() int64 { return db.bytes }

func (db *seedDatabase) Facts(pred string) []Tuple {
	r := db.rels[pred]
	if r == nil {
		return nil
	}
	out := append([]Tuple(nil), r.facts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

func (db *seedDatabase) Has(pred string, args ...Val) bool {
	r := db.rels[pred]
	if r == nil {
		return false
	}
	_, ok := r.index[Tuple(args).Key()]
	return ok
}

func (db *seedDatabase) Len() int {
	n := 0
	for _, r := range db.rels {
		n += len(r.facts)
	}
	return n
}

func (db *seedDatabase) Predicates() []string {
	var out []string
	for p, r := range db.rels {
		if len(r.facts) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func (db *seedDatabase) clone() *seedDatabase {
	c := newSeedDatabase()
	for p, r := range db.rels {
		nr := &seedRelation{
			facts:   make([]Tuple, len(r.facts)),
			index:   make(map[string]int, len(r.index)),
			byFirst: make(map[string][]int, len(r.byFirst)),
		}
		copy(nr.facts, r.facts)
		for k, v := range r.index {
			nr.index[k] = v
		}
		for k, v := range r.byFirst {
			nr.byFirst[k] = append([]int(nil), v...)
		}
		c.rels[p] = nr
	}
	c.bytes = db.bytes
	return c
}

func (db *seedDatabase) maxNullID() uint64 {
	var maxID uint64
	var scan func(v Val)
	scan = func(v Val) {
		switch v.k {
		case KNull:
			if v.id > maxID {
				maxID = v.id
			}
		case KList:
			for _, e := range v.l {
				scan(e)
			}
		}
	}
	for _, r := range db.rels {
		for _, t := range r.facts {
			for _, v := range t {
				scan(v)
			}
		}
	}
	return maxID
}

// seedResult mirrors the legacy Result: string-keyed provenance over the
// legacy database.
type seedResult struct {
	db         *seedDatabase
	prov       map[string]seedDerivation
	rules      []Rule
	Violations []Violation
}

func (r *seedResult) Facts(pred string) []Tuple         { return r.db.Facts(pred) }
func (r *seedResult) Has(pred string, args ...Val) bool { return r.db.Has(pred, args...) }
func (r *seedResult) Predicates() []string              { return r.db.Predicates() }
func (r *seedResult) ViolationList() []Violation        { return r.Violations }

type seedFactRef struct {
	pred string
	t    Tuple
}

func (f seedFactRef) key() string    { return f.pred + "/" + f.t.Key() }
func (f seedFactRef) String() string { return f.pred + f.t.String() }

type seedDerivation struct {
	rule int
	body []seedFactRef
}

func (r *seedResult) Explain(pred string, args ...Val) (string, error) {
	if !r.db.Has(pred, args...) {
		return "", fmt.Errorf("datalog: fact %s%s is not derived", pred, Tuple(args))
	}
	var b strings.Builder
	seen := make(map[string]bool)
	r.explain(&b, seedFactRef{pred, Tuple(args)}, 0, seen)
	return b.String(), nil
}

func (r *seedResult) explain(b *strings.Builder, f seedFactRef, depth int, seen map[string]bool) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(f.String())
	key := f.key()
	d, derived := r.prov[key]
	switch {
	case !derived:
		b.WriteString("   [extensional]\n")
		return
	case seen[key]:
		b.WriteString("   [see above]\n")
		return
	}
	seen[key] = true
	b.WriteString(fmt.Sprintf("   [rule %d: %s]\n", d.rule, r.rules[d.rule].String()))
	for _, bf := range d.body {
		r.explain(b, bf, depth+1, seen)
	}
}

func (r *seedResult) ProvenanceRule(pred string, args ...Val) (int, bool) {
	if !r.db.Has(pred, args...) {
		return 0, false
	}
	d, derived := r.prov[seedFactRef{pred, Tuple(args)}.key()]
	if !derived {
		return -1, true
	}
	return d.rule, true
}

type seedEvaluator struct {
	ctx      context.Context
	prog     *Program
	opt      Options
	db       *seedDatabase
	prov     map[string]seedDerivation
	strata   map[string]int
	nStrata  int
	nullCtr  uint64
	skolem   map[string]Val
	orders   [][]int
	work     int64
	charged  int64
	aggState []map[string]*seedAggGroup
	subst    map[uint64]Val
}

func (ev *seedEvaluator) chargeMemory() error {
	if ev.opt.Governor == nil {
		return nil
	}
	b := ev.db.EstimatedBytes()
	if b <= ev.charged {
		return nil
	}
	//governcharge:ok incremental charge; seedRunContext defers ReleaseBytes(ev.charged) for the whole run
	if err := ev.opt.Governor.ReserveBytes(b - ev.charged); err != nil {
		return fmt.Errorf("datalog: database estimated at %d bytes: %w", b, err)
	}
	ev.charged = b
	return nil
}

type seedAggGroup struct {
	env     map[string]Val
	used    []seedFactRef
	contrib map[string]Val
	emitted bool
	dirty   bool
}

func seedRun(p *Program, edb *Database, opt *Options) (*seedResult, error) {
	return seedRunContext(context.Background(), p, edb, opt)
}

func seedRunContext(ctx context.Context, p *Program, edb *Database, opt *Options) (*seedResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	strata, n, err := stratify(p)
	if err != nil {
		return nil, err
	}
	sdb := seedFromDatabase(edb)
	ev := &seedEvaluator{
		ctx:     ctx,
		prog:    p,
		opt:     opt.withDefaults(),
		db:      sdb.clone(),
		prov:    make(map[string]seedDerivation),
		strata:  strata,
		nStrata: n,
		nullCtr: sdb.maxNullID(),
		skolem:  make(map[string]Val),
		subst:   make(map[uint64]Val),
	}
	if ev.opt.Governor != nil {
		defer func() { ev.opt.Governor.ReleaseBytes(ev.charged) }()
	}
	if err := ev.chargeMemory(); err != nil {
		return nil, err
	}
	ev.orders = make([][]int, len(p.Rules))
	for i := range p.Rules {
		ord, err := literalOrder(&p.Rules[i])
		if err != nil {
			return nil, err
		}
		ev.orders[i] = ord
	}

	for i := range p.Rules {
		r := &p.Rules[i]
		if r.IsEGD || len(r.Body) > 0 {
			continue
		}
		for _, h := range r.Heads {
			t := make(Tuple, len(h.Args))
			for j, a := range h.Args {
				t[j] = a.Val
			}
			ev.db.addTuple(h.Pred, t)
		}
	}

	var violations []Violation
	seenViol := make(map[string]bool)
	for pass := 0; ; pass++ {
		if pass > ev.opt.MaxRounds {
			return nil, fmt.Errorf("datalog: EGD unification did not converge")
		}
		if err := ev.ctxErr(); err != nil {
			return nil, err
		}
		if err := ev.runStrata(); err != nil {
			return nil, err
		}
		unified, viols, err := ev.runEGDs()
		if err != nil {
			return nil, err
		}
		for _, v := range viols {
			k := v.Rule + "|" + v.A.Key() + "|" + v.B.Key()
			if !seenViol[k] {
				seenViol[k] = true
				violations = append(violations, v)
			}
		}
		if !unified {
			break
		}
		ev.applySubst()
	}
	return &seedResult{db: ev.db, prov: ev.prov, rules: p.Rules, Violations: violations}, nil
}

func (ev *seedEvaluator) runStrata() error {
	ruleStratum := make([]int, len(ev.prog.Rules))
	ev.aggState = make([]map[string]*seedAggGroup, len(ev.prog.Rules))
	for i := range ev.prog.Rules {
		r := &ev.prog.Rules[i]
		if r.IsEGD || len(r.Body) == 0 {
			ruleStratum[i] = -1
			continue
		}
		ruleStratum[i] = ev.strata[r.Heads[0].Pred]
		ev.aggState[i] = make(map[string]*seedAggGroup)
	}
	for s := 0; s < ev.nStrata; s++ {
		var rules []int
		for i, rs := range ruleStratum {
			if rs == s {
				rules = append(rules, i)
			}
		}
		if len(rules) == 0 {
			continue
		}
		if err := ev.fixpoint(s, rules); err != nil {
			return err
		}
	}
	return nil
}

func (ev *seedEvaluator) fixpoint(stratum int, rules []int) error {
	delta := make(map[string][]Tuple)
	collect := func(added []seedFactRef) {
		for _, f := range added {
			delta[f.pred] = append(delta[f.pred], f.t)
		}
	}

	var added []seedFactRef
	for _, ri := range rules {
		a, err := ev.evalRule(ri, -1, nil)
		if err != nil {
			return err
		}
		added = append(added, a...)
	}
	collect(added)
	if ev.opt.Trace != nil {
		fmt.Fprintf(ev.opt.Trace, "stratum %d seed: %d rules, %d facts derived, db %d\n",
			stratum, len(rules), len(added), ev.db.Len())
	}
	if err := ev.chargeMemory(); err != nil {
		return err
	}

	for round := 0; len(delta) > 0; round++ {
		if round > ev.opt.MaxRounds {
			return fmt.Errorf("datalog: stratum %d exceeded %d rounds", stratum, ev.opt.MaxRounds)
		}
		if err := ev.ctxErr(); err != nil {
			return err
		}
		if ev.db.Len() > ev.opt.MaxFacts {
			return fmt.Errorf("datalog: database exceeded %d facts (runaway chase?)", ev.opt.MaxFacts)
		}
		if err := ev.chargeMemory(); err != nil {
			return err
		}
		next := make(map[string][]Tuple)
		for _, ri := range rules {
			r := &ev.prog.Rules[ri]
			for li, l := range r.Body {
				if l.Kind != LAtom {
					continue
				}
				if ev.strata[l.Atom.Pred] != stratum {
					continue
				}
				d := delta[l.Atom.Pred]
				if len(d) == 0 {
					continue
				}
				a, err := ev.evalRule(ri, li, d)
				if err != nil {
					return err
				}
				for _, f := range a {
					next[f.pred] = append(next[f.pred], f.t)
				}
			}
		}
		if ev.opt.Trace != nil {
			derived := 0
			for _, fs := range next {
				derived += len(fs)
			}
			fmt.Fprintf(ev.opt.Trace, "stratum %d round %d: %d facts derived, db %d\n",
				stratum, round+1, derived, ev.db.Len())
		}
		delta = next
	}
	return nil
}

func (ev *seedEvaluator) evalRule(ri, restrict int, restrictTo []Tuple) ([]seedFactRef, error) {
	r := &ev.prog.Rules[ri]
	var out []seedFactRef
	env := make(map[string]Val)
	var used []seedFactRef
	var evalErr error

	var emit func()
	aggLit := -1
	for i, l := range r.Body {
		if l.Kind == LAggAssign || l.Kind == LAggCond {
			aggLit = i
		}
	}

	if aggLit == -1 {
		emit = func() {
			refs, err := ev.emitHeads(ri, env, used)
			if err != nil {
				evalErr = err
				return
			}
			out = append(out, refs...)
		}
	} else {
		emit = func() {
			if err := ev.recordAgg(ri, aggLit, env, used); err != nil {
				evalErr = err
			}
		}
	}

	order := ev.orders[ri]
	var walk func(step int)
	walk = func(step int) {
		if evalErr != nil {
			return
		}
		if step == len(order) || (aggLit >= 0 && order[step] == aggLit) {
			emit()
			return
		}
		l := &r.Body[order[step]]
		switch l.Kind {
		case LAtom:
			if order[step] == restrict {
				for _, f := range restrictTo {
					if err := ev.spend(); err != nil {
						evalErr = err
						return
					}
					undo, ok := match(l.Atom, f, env)
					if !ok {
						continue
					}
					used = append(used, seedFactRef{l.Atom.Pred, f})
					walk(step + 1)
					used = used[:len(used)-1]
					undoBind(env, undo)
					if evalErr != nil {
						return
					}
				}
				return
			}
			rel := ev.db.rels[l.Atom.Pred]
			if rel == nil {
				return
			}
			if len(l.Atom.Args) > 0 {
				if fv, ok := boundTermVal(l.Atom.Args[0], env); ok {
					bucket := rel.byFirst[fv.Key()]
					for bi := 0; bi < len(bucket); bi++ {
						if err := ev.spend(); err != nil {
							evalErr = err
							return
						}
						f := rel.facts[bucket[bi]]
						undo, ok := match(l.Atom, f, env)
						if !ok {
							continue
						}
						used = append(used, seedFactRef{l.Atom.Pred, f})
						walk(step + 1)
						used = used[:len(used)-1]
						undoBind(env, undo)
						if evalErr != nil {
							return
						}
						bucket = rel.byFirst[fv.Key()]
					}
					return
				}
			}
			for fi := 0; fi < len(rel.facts); fi++ {
				if err := ev.spend(); err != nil {
					evalErr = err
					return
				}
				f := rel.facts[fi]
				undo, ok := match(l.Atom, f, env)
				if !ok {
					continue
				}
				used = append(used, seedFactRef{l.Atom.Pred, f})
				walk(step + 1)
				used = used[:len(used)-1]
				undoBind(env, undo)
				if evalErr != nil {
					return
				}
			}
		case LNegAtom:
			t := make(Tuple, len(l.Atom.Args))
			for i, a := range l.Atom.Args {
				v, err := termVal(a, env)
				if err != nil {
					evalErr = err
					return
				}
				t[i] = v
			}
			if !ev.db.Has(l.Atom.Pred, t...) {
				walk(step + 1)
			}
		case LCmp:
			lv, err := evalExpr(l.L, env)
			if err != nil {
				evalErr = err
				return
			}
			rv, err := evalExpr(l.R, env)
			if err != nil {
				evalErr = err
				return
			}
			ok, err := compare(l.Op, lv, rv)
			if err != nil {
				evalErr = fmt.Errorf("line %d: %w", r.Line, err)
				return
			}
			if ok {
				walk(step + 1)
			}
		case LAssign:
			v, err := evalExpr(l.AssignE, env)
			if err != nil {
				evalErr = err
				return
			}
			if old, bound := env[l.Var]; bound {
				if Equal(old, v) {
					walk(step + 1)
				}
				return
			}
			env[l.Var] = v
			walk(step + 1)
			delete(env, l.Var)
		}
	}
	walk(0)
	if evalErr != nil {
		return nil, evalErr
	}

	if aggLit >= 0 {
		refs, err := ev.flushAgg(ri, aggLit)
		if err != nil {
			return nil, err
		}
		out = append(out, refs...)
	}
	return out, nil
}

func (ev *seedEvaluator) spend() error {
	ev.work++
	if ev.work > ev.opt.MaxWork {
		return fmt.Errorf("datalog: exceeded the work budget of %d match attempts (join explosion?)", ev.opt.MaxWork)
	}
	if ev.work&ctxPollMask == 0 {
		return ev.ctxErr()
	}
	return nil
}

func (ev *seedEvaluator) ctxErr() error {
	if err := ev.ctx.Err(); err != nil {
		return fmt.Errorf("datalog: evaluation cancelled after %d match attempts: %w", ev.work, err)
	}
	return nil
}

func (ev *seedEvaluator) factsFor(pred string) []Tuple {
	r := ev.db.rels[pred]
	if r == nil {
		return nil
	}
	return r.facts
}

func (ev *seedEvaluator) emitHeads(ri int, env map[string]Val, used []seedFactRef) ([]seedFactRef, error) {
	r := &ev.prog.Rules[ri]
	var cleanup []string
	if len(r.Existential) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "r%d|", ri)
		var frontier []string
		for _, h := range r.Heads {
			for _, t := range h.Args {
				if t.Kind == TVar {
					if _, ok := env[t.Name]; ok {
						frontier = append(frontier, t.Name)
					}
				}
			}
		}
		sort.Strings(frontier)
		for _, v := range frontier {
			b.WriteString(v)
			b.WriteByte('=')
			b.WriteString(env[v].Key())
			b.WriteByte(';')
		}
		base := b.String()
		for _, x := range r.Existential {
			key := base + "!" + x
			null, ok := ev.skolem[key]
			if !ok {
				ev.nullCtr++
				null = NullVal(ev.nullCtr)
				ev.skolem[key] = null
			}
			env[x] = ev.resolve(null)
			cleanup = append(cleanup, x)
		}
	}
	defer undoBind(env, cleanup)

	var out []seedFactRef
	usedCopy := append([]seedFactRef(nil), used...)
	for _, h := range r.Heads {
		t := make(Tuple, len(h.Args))
		for i, a := range h.Args {
			v, err := termVal(a, env)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", r.Line, err)
			}
			t[i] = v
		}
		if ev.db.addTuple(h.Pred, t) {
			ref := seedFactRef{h.Pred, t}
			ev.prov[ref.key()] = seedDerivation{rule: ri, body: usedCopy}
			out = append(out, ref)
		}
	}
	return out, nil
}

func (ev *seedEvaluator) recordAgg(ri, aggLit int, env map[string]Val, used []seedFactRef) error {
	r := &ev.prog.Rules[ri]
	l := &r.Body[aggLit]

	groupVars := seedGroupVars(r, l)
	var b strings.Builder
	genv := make(map[string]Val, len(groupVars))
	for _, v := range groupVars {
		val, ok := env[v]
		if !ok {
			return fmt.Errorf("datalog: line %d: head variable %s unbound at aggregate", r.Line, v)
		}
		genv[v] = val
		b.WriteString(val.Key())
		b.WriteByte('|')
	}
	gkey := b.String()

	st := ev.aggState[ri]
	g, ok := st[gkey]
	if !ok {
		g = &seedAggGroup{env: genv, used: append([]seedFactRef(nil), used...), contrib: make(map[string]Val)}
		st[gkey] = g
	}

	cv, err := evalExpr(l.Agg.Contrib, env)
	if err != nil {
		return err
	}
	var contribution Val
	switch l.Agg.Fn {
	case AggCount:
		contribution = Num(1)
	case AggUnion:
		v, err := evalExpr(l.Agg.Arg, env)
		if err != nil {
			return err
		}
		contribution = v
	default:
		v, err := evalExpr(l.Agg.Arg, env)
		if err != nil {
			return err
		}
		if v.k != KNum {
			return fmt.Errorf("datalog: line %d: %s over non-number %s", r.Line, l.Agg.Fn, v)
		}
		contribution = v
	}

	ck := cv.Key()
	if old, ok := g.contrib[ck]; ok {
		if l.Agg.Fn == AggUnion {
			merged := List(append(old.Elems(), contribution)...)
			if !Equal(merged, old) {
				g.contrib[ck] = merged
				g.dirty = true
			}
		} else if Compare(contribution, old) > 0 {
			g.contrib[ck] = contribution
			g.dirty = true
		}
	} else {
		if l.Agg.Fn == AggUnion {
			contribution = List(contribution)
		}
		g.contrib[ck] = contribution
		g.dirty = true
	}
	return nil
}

func seedGroupVars(r *Rule, l *Literal) []string {
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

func (ev *seedEvaluator) flushAgg(ri, aggLit int) ([]seedFactRef, error) {
	r := &ev.prog.Rules[ri]
	l := &r.Body[aggLit]
	var out []seedFactRef

	gkeys := make([]string, 0, len(ev.aggState[ri]))
	for k, g := range ev.aggState[ri] {
		if g.dirty {
			gkeys = append(gkeys, k)
		}
	}
	sort.Strings(gkeys)

	for _, gk := range gkeys {
		g := ev.aggState[ri][gk]
		g.dirty = false
		agg, err := seedFoldAgg(l.Agg.Fn, g.contrib)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", r.Line, err)
		}
		env := make(map[string]Val, len(g.env)+1)
		for k, v := range g.env {
			env[k] = v
		}
		switch l.Kind {
		case LAggAssign:
			env[l.Var] = agg
		case LAggCond:
			rhs, err := evalExpr(l.R, env)
			if err != nil {
				return nil, err
			}
			ok, err := compare(l.Op, agg, rhs)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", r.Line, err)
			}
			if !ok || g.emitted {
				continue
			}
			g.emitted = true
		}
		refs, err := ev.emitHeads(ri, env, g.used)
		if err != nil {
			return nil, err
		}
		out = append(out, refs...)
	}
	return out, nil
}

func seedFoldAgg(fn AggFn, contrib map[string]Val) (Val, error) {
	keys := make([]string, 0, len(contrib))
	for k := range contrib {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	switch fn {
	case AggCount:
		return Num(float64(len(contrib))), nil
	case AggSum:
		s := 0.0
		for _, k := range keys {
			s += contrib[k].NumVal()
		}
		return Num(s), nil
	case AggProd:
		p := 1.0
		for _, k := range keys {
			p *= contrib[k].NumVal()
		}
		return Num(p), nil
	case AggUnion:
		var all []Val
		for _, k := range keys {
			all = append(all, contrib[k].Elems()...)
		}
		return List(all...), nil
	}
	return Val{}, fmt.Errorf("unknown aggregate %s", fn)
}

func (ev *seedEvaluator) runEGDs() (unified bool, viols []Violation, err error) {
	for ri := range ev.prog.Rules {
		r := &ev.prog.Rules[ri]
		if !r.IsEGD {
			continue
		}
		if err := ev.ctxErr(); err != nil {
			return false, nil, err
		}
		env := make(map[string]Val)
		var evalErr error
		order := ev.orders[ri]
		var walk func(step int)
		walk = func(step int) {
			if evalErr != nil {
				return
			}
			if step == len(order) {
				l, errL := termVal(r.EGDL, env)
				if errL != nil {
					evalErr = errL
					return
				}
				rv, errR := termVal(r.EGDR, env)
				if errR != nil {
					evalErr = errR
					return
				}
				l, rv = ev.resolve(l), ev.resolve(rv)
				if Equal(l, rv) {
					return
				}
				switch {
				case l.k == KNull:
					ev.subst[l.id] = rv
					unified = true
				case rv.k == KNull:
					ev.subst[rv.id] = l
					unified = true
				default:
					viols = append(viols, Violation{Rule: r.String(), A: l, B: rv})
				}
				return
			}
			lit := &r.Body[order[step]]
			switch lit.Kind {
			case LAtom:
				for _, f := range ev.factsFor(lit.Atom.Pred) {
					undo, ok := match(lit.Atom, f, env)
					if !ok {
						continue
					}
					walk(step + 1)
					undoBind(env, undo)
					if evalErr != nil {
						return
					}
				}
			case LNegAtom:
				t := make(Tuple, len(lit.Atom.Args))
				for i, a := range lit.Atom.Args {
					v, err := termVal(a, env)
					if err != nil {
						evalErr = err
						return
					}
					t[i] = v
				}
				if !ev.db.Has(lit.Atom.Pred, t...) {
					walk(step + 1)
				}
			case LCmp:
				lv, errL := evalExpr(lit.L, env)
				if errL != nil {
					evalErr = errL
					return
				}
				rv, errR := evalExpr(lit.R, env)
				if errR != nil {
					evalErr = errR
					return
				}
				ok, errC := compare(lit.Op, lv, rv)
				if errC != nil {
					evalErr = errC
					return
				}
				if ok {
					walk(step + 1)
				}
			case LAssign:
				v, errA := evalExpr(lit.AssignE, env)
				if errA != nil {
					evalErr = errA
					return
				}
				env[lit.Var] = v
				walk(step + 1)
				delete(env, lit.Var)
			default:
				evalErr = fmt.Errorf("datalog: aggregates are not allowed in EGD bodies")
			}
		}
		walk(0)
		if evalErr != nil {
			return false, nil, evalErr
		}
	}
	return unified, viols, nil
}

func (ev *seedEvaluator) resolve(v Val) Val {
	for i := 0; v.k == KNull; i++ {
		next, ok := ev.subst[v.id]
		if !ok {
			return v
		}
		v = next
		if i > len(ev.subst) {
			return v
		}
	}
	if v.k == KList {
		elems := make([]Val, len(v.l))
		for i, e := range v.l {
			elems[i] = ev.resolve(e)
		}
		return List(elems...)
	}
	return v
}

func (ev *seedEvaluator) applySubst() {
	rewritten := newSeedDatabase()
	remap := make(map[string]string)
	for pred, rel := range ev.db.rels {
		for _, t := range rel.facts {
			nt := make(Tuple, len(t))
			for i, v := range t {
				nt[i] = ev.resolve(v)
			}
			oldKey := seedFactRef{pred, t}.key()
			newKey := seedFactRef{pred, nt}.key()
			remap[oldKey] = newKey
			rewritten.addTuple(pred, nt)
		}
	}
	ev.db = rewritten
	newProv := make(map[string]seedDerivation, len(ev.prov))
	for k, d := range ev.prov {
		nk := k
		if r, ok := remap[k]; ok {
			nk = r
		}
		nb := make([]seedFactRef, len(d.body))
		for i, f := range d.body {
			nt := make(Tuple, len(f.t))
			for j, v := range f.t {
				nt[j] = ev.resolve(v)
			}
			nb[i] = seedFactRef{f.pred, nt}
		}
		if _, exists := newProv[nk]; !exists {
			newProv[nk] = seedDerivation{rule: d.rule, body: nb}
		}
	}
	ev.prov = newProv
}

// The map-environment leaf functions below were the engine's own until the
// EGD walk, aggregate conditions and Query moved onto the compiled plan; the
// oracle keeps verbatim copies so that it shares no evaluation code with the
// engine it checks.

// match unifies an atom pattern against a fact under env, returning the list
// of variables newly bound (to undo) and whether it matched.
func match(a *Atom, f Tuple, env map[string]Val) ([]string, bool) {
	if len(a.Args) != len(f) {
		return nil, false
	}
	var undo []string
	for i, t := range a.Args {
		switch t.Kind {
		case TConst:
			if !Equal(t.Val, f[i]) {
				undoBind(env, undo)
				return nil, false
			}
		case TVar:
			if v, ok := env[t.Name]; ok {
				if !Equal(v, f[i]) {
					undoBind(env, undo)
					return nil, false
				}
			} else {
				env[t.Name] = f[i]
				undo = append(undo, t.Name)
			}
		}
	}
	return undo, true
}

func undoBind(env map[string]Val, undo []string) {
	for _, v := range undo {
		delete(env, v)
	}
}

// boundTermVal resolves a term if it is a constant or an already-bound
// variable.
func boundTermVal(t Term, env map[string]Val) (Val, bool) {
	if t.Kind == TConst {
		return t.Val, true
	}
	v, ok := env[t.Name]
	return v, ok
}

func termVal(t Term, env map[string]Val) (Val, error) {
	if t.Kind == TConst {
		return t.Val, nil
	}
	v, ok := env[t.Name]
	if !ok {
		return Val{}, fmt.Errorf("datalog: unbound variable %s", t.Name)
	}
	return v, nil
}

func evalExpr(e Expr, env map[string]Val) (Val, error) {
	switch x := e.(type) {
	case ExprTerm:
		return termVal(x.T, env)
	case ExprNeg:
		v, err := evalExpr(x.E, env)
		if err != nil {
			return Val{}, err
		}
		if v.k != KNum {
			return Val{}, fmt.Errorf("datalog: unary '-' on non-number %s", v)
		}
		return Num(-v.n), nil
	case ExprCall:
		spec, ok := builtins[x.Name]
		if !ok {
			return Val{}, fmt.Errorf("datalog: unknown function %q", x.Name)
		}
		args := make([]Val, len(x.Args))
		for i, a := range x.Args {
			v, err := evalExpr(a, env)
			if err != nil {
				return Val{}, err
			}
			args[i] = v
		}
		return spec.apply(args)
	case ExprBin:
		l, err := evalExpr(x.L, env)
		if err != nil {
			return Val{}, err
		}
		r, err := evalExpr(x.R, env)
		if err != nil {
			return Val{}, err
		}
		if l.k != KNum || r.k != KNum {
			return Val{}, fmt.Errorf("datalog: arithmetic %q on non-numbers %s, %s", x.Op, l, r)
		}
		switch x.Op {
		case "+":
			return Num(l.n + r.n), nil
		case "-":
			return Num(l.n - r.n), nil
		case "*":
			return Num(l.n * r.n), nil
		case "/":
			if r.n == 0 {
				return Val{}, fmt.Errorf("datalog: division by zero")
			}
			return Num(l.n / r.n), nil
		}
	}
	return Val{}, fmt.Errorf("datalog: bad expression %v", e)
}
