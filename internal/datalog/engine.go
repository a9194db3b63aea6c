package datalog

// This file is the execution layer of the rebuilt evaluator. The compiled
// plan (compile.go) reduces rule bodies to sequences of cSteps over interned
// ids; the walk here is a backtracking join over those steps with no map
// environments, no key strings and no per-candidate allocation. Strata run
// one after another; the one parallelism is partitions of a large delta
// within one rule, constructed so the derived database, provenance,
// labelled-null identities and diagnostics are bit-identical to the
// sequential evaluator (see DESIGN.md §8.3 for the argument).

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vadasa/internal/pool"
)

// fid packs a fact identity: predicate id in the high word, row position in
// the low. It replaces the pred+"/"+Key() strings the old engine built for
// every provenance and violation lookup.
func fid(pid, pos uint32) uint64 { return uint64(pid)<<32 | uint64(pos) }

type evaluator struct {
	ctx     context.Context
	prog    *Program
	opt     Options
	db      *Database
	strata  map[string]int
	nStrata int
	nullCtr uint64
	skolem  map[string]Val
	subst   map[uint64]Val
	orders  [][]int
	crules  []*cRule

	predIDs   map[string]uint32
	predNames []string

	// The interner view and head-row buffer of everything but a delta
	// partition, which brings its own view and buffers its rows.
	iv     iview
	rowBuf []uint32

	// What an EGD pass found (see equate): whether any labelled null was
	// unified, and the equalities demanded between distinct constants.
	unified bool
	viols   []Violation

	// inputRows counts, per predicate, the leading rows that are images of
	// input facts: the EDB rows at first, what they merge into after each
	// applySubst. DerivedFacts is every other row.
	inputRows map[string]int

	workers   int
	work      atomic.Int64 // the one counter partitions write, see settle
	rounds    int
	charged   int64
	peak      int64
	egdPasses int

	// aggState holds the group-by operator's table of every aggregate rule
	// (nil for the others); aggBytes is their summed footprint, which
	// chargeMemory adds to the database estimate.
	aggState []*aggTable
	aggBytes int64

	memos sync.Pool // of *numMemo, see internComputed
}

// emitBuf buffers the head emissions of one parallel delta partition as two
// flat arenas, applied in partition order during the deterministic merge.
// Only parallelOK rules are buffered, and for those every emission has the
// same shape — one body fact id per positive atom, one row per head of
// fixed arity — so the merge walks both arenas in step and the buffer needs
// no per-emission header, let alone a per-emission allocation.
type emitBuf struct {
	used []uint64
	rows []uint32
}

// parallelCandidateMin is the smallest candidate count worth partitioning;
// below it the fork/join overhead exceeds the join work.
const parallelCandidateMin = 4096

// walkCtx is the state of one backtracking join walk. env is a flat slot
// array of interned ids; slots statically unbound at a step hold garbage
// from earlier candidates, which is safe because the fixed literal order
// means they are never read before the step that binds them.
type walkCtx struct {
	ev         *evaluator
	c          *cRule
	restrictLi int
	lo, hi     uint32
	env        []uint32
	used       []uint64
	iv         *iview
	err        error
	stop       bool
	buffer     *emitBuf
	derived    int
	rowBuf     []uint32
	memo       *numMemo

	// Match attempts counted since the last settle, and since the context
	// was last polled.
	pending, unpolled uint32
}

// workBatch is how many match attempts a walk counts privately before it
// settles them into the run-wide total: small enough that a blown budget is
// noticed within workBatch attempts per worker, large enough that the workers
// of a partitioned rule stop trading one cache line per candidate.
const workBatch = 256

// spend counts one match attempt. It touches only the walk: the shared
// counter, the work budget and the context are settle's business.
func (w *walkCtx) spend() error {
	w.pending++
	if w.pending < workBatch {
		return nil
	}
	return w.settle()
}

// settle adds the walk's pending attempts to the run-wide total — the only
// place that total is written, so it is exact once every walk has settled,
// and every walk settles when it ends (evalRule, the partition loop). The
// total is checked against MaxWork here: a run fails iff its attempts exceed
// the budget, noticed at most workBatch attempts per worker late. The
// context is polled once a walk has spent more than ctxPollMask attempts
// unpolled.
func (w *walkCtx) settle() error {
	ev := w.ev
	n := ev.work.Add(int64(w.pending))
	w.unpolled += w.pending
	w.pending = 0
	if n > ev.opt.MaxWork {
		return fmt.Errorf("datalog: exceeded the work budget of %d match attempts (join explosion?)", ev.opt.MaxWork)
	}
	if w.unpolled > ctxPollMask {
		w.unpolled = 0
		return ev.ctxErr()
	}
	return nil
}

// finish settles a walk that has ended, however it ended. A budget found
// blown here was blown at or before the walk's own error, if it has one, so
// the budget error is the one the unbatched count would have reported.
func (w *walkCtx) finish() error {
	if w.memo != nil {
		w.ev.memos.Put(w.memo)
		w.memo = nil
	}
	if err := w.settle(); err != nil {
		return err
	}
	return w.err
}

func (ev *evaluator) ctxErr() error {
	if err := ev.ctx.Err(); err != nil {
		return fmt.Errorf("datalog: evaluation cancelled after %d match attempts: %w", ev.work.Load(), err)
	}
	return nil
}

// matchRow unifies a compiled atom pattern against a stored row. Binding
// writes the row id straight into the slot; checks compare ids, which is
// exactly Equal because the interner canonicalizes by the same equivalence
// Compare uses. No undo is needed (see walkCtx.env).
func matchRow(st *cStep, row []uint32, env []uint32) bool {
	if len(row) != len(st.args) {
		return false
	}
	for i := range st.args {
		a := &st.args[i]
		if a.slot < 0 {
			if row[i] != a.vid {
				return false
			}
		} else if a.bind {
			env[a.slot] = row[i]
		} else if env[a.slot] != row[i] {
			return false
		}
	}
	return true
}

// evalExprS evaluates an expression of rule c over a slot environment,
// decoding ids through the caller's interner view. It is the engine's only
// expression evaluator: comparisons, assignments, aggregate arguments and
// the right-hand side of an aggregate condition all come here.
func evalExprS(e Expr, c *cRule, env []uint32, iv *iview) (Val, error) {
	switch x := e.(type) {
	case ExprTerm:
		if x.T.Kind == TConst {
			return x.T.Val, nil
		}
		s, ok := c.slotOf[x.T.Name]
		if !ok || env[s] == unboundVid {
			return Val{}, fmt.Errorf("datalog: unbound variable %s", x.T.Name)
		}
		return iv.val(env[s]), nil
	case ExprNeg:
		v, err := evalExprS(x.E, c, env, iv)
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
			v, err := evalExprS(a, c, env, iv)
			if err != nil {
				return Val{}, err
			}
			args[i] = v
		}
		return spec.apply(args)
	case ExprBin:
		l, err := evalExprS(x.L, c, env, iv)
		if err != nil {
			return Val{}, err
		}
		r, err := evalExprS(x.R, c, env, iv)
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

// evalNumS is evalExprS for the case the risk programs' assignments are made
// of — pure arithmetic (cOperand.arith) over numeric variables and constants,
// R = F / S — computed on float64s read off the interner columns, with no Val
// built per node. ok is false for anything else (a non-number, a division by
// zero, an unbound variable): the caller then asks evalExprS, which owns
// every error text, so the two agree by construction.
func evalNumS(e Expr, c *cRule, env []uint32, iv *iview) (n float64, ok bool) {
	switch x := e.(type) {
	case ExprTerm:
		if x.T.Kind == TConst {
			return x.T.Val.n, x.T.Val.k == KNum
		}
		if s, bound := c.slotOf[x.T.Name]; bound && env[s] != unboundVid {
			return iv.num(env[s])
		}
	case ExprNeg:
		n, ok = evalNumS(x.E, c, env, iv)
		return -n, ok
	case ExprBin:
		l, lok := evalNumS(x.L, c, env, iv)
		r, rok := evalNumS(x.R, c, env, iv)
		if !lok || !rok {
			return 0, false
		}
		switch x.Op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			return l / r, r != 0
		}
	}
	return 0, false
}

// windowStart returns where the delta window starting at row position lo
// begins in an index bucket: bucket positions ascend with insertion, so the
// window is a contiguous run of the bucket.
func windowStart(bucket []uint32, lo uint32) int {
	return sort.Search(len(bucket), func(i int) bool { return bucket[i] >= lo })
}

func (w *walkCtx) walk(step int) {
	if step == len(w.c.steps) {
		w.emit()
		return
	}
	st := &w.c.steps[step]
	switch st.kind {
	case LAtom:
		// Candidates are row positions in ascending (= insertion) order: the
		// whole relation or, where the plan selected a join index, the
		// probed bucket. The restricted literal sees only its delta window
		// [lo, hi); every other literal runs to the live end, so facts the
		// rule itself derives mid-pass stay visible.
		lo, hi := uint32(0), ^uint32(0)
		if st.li == w.restrictLi {
			lo, hi = w.lo, w.hi
		}
		var bucket []uint32 // the probed bucket; nil when the relation itself is scanned
		var h uint64
		i, n := int(lo), 0 // the next candidate and the end of those seen so far
		if st.idx != nil {
			h = probeHash(st, w.env)
			bucket = st.idx.m[h]
			i, n = 0, len(bucket)
			if lo > 0 {
				i = windowStart(bucket, lo)
			}
		}
		for ; ; i++ {
			if i >= n {
				// A self-insert appends to the relation and to the live
				// bucket, possibly moving it: look again before giving up.
				if st.idx != nil {
					bucket = st.idx.m[h]
					n = len(bucket)
				} else {
					n = st.rel.nrows()
				}
				if i >= n {
					return
				}
			}
			pos := uint32(i)
			if bucket != nil {
				pos = bucket[i]
			}
			if pos >= hi {
				return
			}
			if err := w.spend(); err != nil {
				w.err = err
				return
			}
			if !matchRow(st, st.rel.row(int(pos)), w.env) {
				continue
			}
			w.used = append(w.used, fid(st.pid, pos))
			w.walk(step + 1)
			w.used = w.used[:len(w.used)-1]
			if w.err != nil || w.stop {
				return
			}
		}
	case LNegAtom:
		if cap(w.rowBuf) < len(st.args) {
			w.rowBuf = make([]uint32, len(st.args))
		}
		row := w.rowBuf[:len(st.args)]
		for i := range st.args {
			var ok bool
			if row[i], ok = st.args[i].vidIn(w.env); !ok {
				w.err = st.args[i].unbound()
				return
			}
		}
		if _, ok := st.rel.findRow(row); !ok {
			w.walk(step + 1)
		}
	case LCmp:
		ok, err := w.holds(st)
		if err != nil {
			w.err = err
			return
		}
		if ok {
			w.walk(step + 1)
		}
	case LAssign:
		if st.preBound && st.l.computed {
			// A filter: the computed value is compared, not interned.
			v, err := evalExprS(st.l.e, w.c, w.env, w.iv)
			if err != nil {
				w.err = err
				return
			}
			if Equal(w.iv.val(w.env[st.assignSlot]), v) {
				w.walk(step + 1)
			}
			return
		}
		id, err := w.operandID(&st.l)
		if err != nil {
			w.err = err
			return
		}
		if !st.preBound {
			w.env[st.assignSlot] = id
		} else if !w.iv.equalIDs(w.env[st.assignSlot], id) {
			return
		}
		w.walk(step + 1)
	}
}

// operandVal returns the operand's value.
func (w *walkCtx) operandVal(o *cOperand) (Val, error) {
	if o.computed {
		return evalExprS(o.e, w.c, w.env, w.iv)
	}
	id, ok := o.arg.vidIn(w.env)
	if !ok {
		return Val{}, o.arg.unbound()
	}
	return w.iv.val(id), nil
}

// operandID returns the operand as an interned id: what the slot holds, the
// constant's id, or — only for a computed operand — the id its value interns
// to.
func (w *walkCtx) operandID(o *cOperand) (uint32, error) {
	if o.computed {
		if n, ok := w.operandArith(o); ok {
			return w.internComputed(Num(n)), nil
		}
		v, err := evalExprS(o.e, w.c, w.env, w.iv)
		if err != nil {
			return 0, err
		}
		return w.internComputed(v), nil
	}
	id, ok := o.arg.vidIn(w.env)
	if !ok {
		return 0, o.arg.unbound()
	}
	return id, nil
}

// operandArith computes a pure-arithmetic operand on float64s; ok is false
// when the operand is not one or evalNumS leaves it to evalExprS.
func (w *walkCtx) operandArith(o *cOperand) (float64, bool) {
	if !o.arith {
		return 0, false
	}
	return evalNumS(o.e, w.c, w.env, w.iv)
}

// numMemo is a direct-mapped memory of numbers a walk interned. An
// assignment such as R = 1 / S computes one value per group of tuples, not
// per tuple: the walk that interned it a moment ago finds the id here and
// leaves the interner's mutex — shared with every other partition — alone.
// Ids never change for the life of a run's interner, so an entry is never
// stale and a finished walk hands its memo on through evaluator.memos.
type numMemo struct {
	bits [numMemoSize]uint64
	id1  [numMemoSize]uint32 // id + 1; 0 marks an empty entry
}

const numMemoSize = 2048

func (w *walkCtx) internComputed(v Val) uint32 {
	if v.k != KNum {
		return w.ev.db.in.intern(v)
	}
	if w.memo == nil {
		w.memo = w.ev.memos.Get().(*numMemo)
	}
	bits := numBits(v.n)
	i := scalarHash(KNum, bits) & (numMemoSize - 1)
	if w.memo.id1[i] != 0 && w.memo.bits[i] == bits {
		return w.memo.id1[i] - 1
	}
	id := w.ev.db.in.intern(v)
	w.memo.bits[i], w.memo.id1[i] = bits, id+1
	return id
}

// holds decides a comparison step. Operands that are slots or constants are
// compared as ids (iview.equalIDs) or as numbers read off the columns;
// everything else goes through compare on values, which the fast paths
// reproduce case for case.
func (w *walkCtx) holds(st *cStep) (bool, error) {
	op := st.lit.Op
	if !st.l.computed && !st.r.computed && op != OpIn {
		l, ok := st.l.arg.vidIn(w.env)
		if !ok {
			return false, st.l.arg.unbound()
		}
		r, ok := st.r.arg.vidIn(w.env)
		if !ok {
			return false, st.r.arg.unbound()
		}
		switch op {
		case OpEq:
			return w.iv.equalIDs(l, r), nil
		case OpNe:
			return !w.iv.equalIDs(l, r), nil
		}
		if ln, ok := w.iv.num(l); ok {
			if rn, ok := w.iv.num(r); ok {
				// Compare's three-way result on numbers: a NaN is neither
				// below nor above anything, so it compares as equal.
				switch op {
				case OpLt:
					return ln < rn, nil
				case OpLe:
					return !(ln > rn), nil
				case OpGt:
					return ln > rn, nil
				case OpGe:
					return !(ln < rn), nil
				}
			}
		}
	}
	lv, err := w.operandVal(&st.l)
	if err != nil {
		return false, err
	}
	rv, err := w.operandVal(&st.r)
	if err != nil {
		return false, err
	}
	ok, err := compare(op, lv, rv)
	if err != nil {
		return false, fmt.Errorf("line %d: %w", w.c.r.Line, err)
	}
	return ok, nil
}

// emit is where a complete body match ends, in one of three terminals: an
// EGD equates its two sides, an aggregate rule feeds the group-by operator,
// and every other rule inserts its heads.
func (w *walkCtx) emit() {
	c := w.c
	if c.r.IsEGD {
		w.err = w.equate()
		return
	}
	if c.aggLit >= 0 {
		w.err = w.recordAgg()
		return
	}
	if w.buffer != nil {
		w.bufferEmit()
		return
	}
	n, err := w.ev.emitHeads(c, w.env, w.used)
	w.derived += n
	if err != nil {
		w.err = err
		return
	}
	if c.ground {
		// All (constant) heads are now present; no further body match can
		// add anything — stop at the first witness.
		w.stop = true
	}
}

// bufferEmit materializes head rows without inserting them; the partition
// merge applies them in order. Only parallelOK rules reach this path, so no
// existential resolution or aggregation happens here.
func (w *walkCtx) bufferEmit() {
	c := w.c
	b := w.buffer
	nRows := len(b.rows)
	for hi := range c.heads {
		var err error
		if b.rows, err = c.heads[hi].appendRow(b.rows, c, w.env); err != nil {
			b.rows = b.rows[:nRows] // a half-built emission is never merged
			w.err = err
			return
		}
	}
	b.used = append(b.used, w.used...)
}

// equate is the EGD terminal: the two sides of the equality under the
// current match, read through the substitution built so far, are unified
// when one of them is a labelled null and recorded as a violation when they
// are distinct constants. The database itself is untouched until the pass is
// over (applySubst), so an EGD body only ever reads saturated relations.
func (w *walkCtx) equate() error {
	c := w.c
	if c.aggLit >= 0 {
		return fmt.Errorf("datalog: aggregates are not allowed in EGD bodies")
	}
	lv, ok := c.egd[0].vidIn(w.env)
	if !ok {
		return c.egd[0].unbound()
	}
	rv, ok := c.egd[1].vidIn(w.env)
	if !ok {
		return c.egd[1].unbound()
	}
	ev := w.ev
	l, r := ev.resolve(w.iv.val(lv)), ev.resolve(w.iv.val(rv))
	switch {
	case Equal(l, r):
	case l.k == KNull:
		ev.subst[l.id] = r
		ev.unified = true
	case r.k == KNull:
		ev.subst[r.id] = l
		ev.unified = true
	default:
		ev.viols = append(ev.viols, Violation{Rule: c.r.String(), A: l, B: r})
	}
	return nil
}

// vidIn returns the id the argument stands for under env — its constant, or
// what its slot is bound to — and false for a slot still unbound.
func (a *cArg) vidIn(env []uint32) (uint32, bool) {
	if a.slot < 0 {
		return a.vid, true
	}
	v := env[a.slot]
	return v, v != unboundVid
}

func (a *cArg) unbound() error { return fmt.Errorf("datalog: unbound variable %s", a.name) }

// appendRow appends the head's row under env to dst.
func (h *cHead) appendRow(dst []uint32, c *cRule, env []uint32) ([]uint32, error) {
	for i := range h.args {
		v, ok := h.args[i].vidIn(env)
		if !ok {
			return dst, fmt.Errorf("line %d: %w", c.r.Line, h.args[i].unbound())
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// emitHeads inserts every head under the current environment, minting
// labelled nulls for existential variables through the run-wide skolem
// table. Only sequential paths reach the existential branch, which keeps
// null-id minting deterministic.
func (ev *evaluator) emitHeads(c *cRule, env []uint32, used []uint64) (int, error) {
	if len(c.r.Existential) > 0 {
		// The key spells each bound frontier value by its id: within a
		// run one id is one value.
		var buf [64]byte
		b := append(buf[:0], c.skolemPrefix...)
		for i, name := range c.frontier {
			v := env[c.frontierSlots[i]]
			if v == unboundVid {
				continue // the old engine skipped unbound head vars here too
			}
			b = append(append(b, name...), '=', byte(v), byte(v>>8), byte(v>>16), byte(v>>24), ';')
		}
		base := string(b)
		for i, x := range c.r.Existential {
			key := base + "!" + x
			null, ok := ev.skolem[key]
			if !ok {
				ev.nullCtr++
				null = NullVal(ev.nullCtr)
				ev.skolem[key] = null
			}
			env[c.existSlots[i]] = ev.db.in.intern(ev.resolve(null))
		}
	}
	added := 0
	for hi := range c.heads {
		h := &c.heads[hi]
		var err error
		if ev.rowBuf, err = h.appendRow(ev.rowBuf[:0], c, env); err != nil {
			return added, err
		}
		if pos, isNew := h.rel.addRow(ev.db, ev.rowBuf); isNew {
			h.rel.setProv(pos, c.ri, used)
			added++
		}
	}
	return added, nil
}

// aggTable is the group-by operator's state for one aggregate rule: two flat
// tables over interned ids, dense in creation order and found through
// open-addressed slot arrays. A group is keyed by the vids of the head's
// group variables; a contribution by (group, contributor vid), and only the
// monotonically best one per key is kept (Section 4.3). The table lives for
// one saturation of the strata, so a recursive aggregate accumulates across
// delta rounds.
type aggTable struct {
	fn    AggFn
	nKey  int // vids per group key
	nUsed int // body fact ids per group

	gkey   []uint32 // nKey vids per group
	gused  []uint64 // nUsed fact ids per group: its first match, the provenance of what it emits
	gflag  []uint8  // aggDirty, aggEmitted
	gn     []uint32 // contributors per group: what mcount folds to
	ghead  []uint32 // the group's newest contribution + 1, chained through cnext; 0 ends the chain
	gslots []uint32 // hash of the key → group + 1

	cgroup []uint32
	cvid   []uint32
	cnext  []uint32  // msum, mprod, munion: the group's chain
	cnum   []float64 // msum, mprod: the contribution
	cset   []Val     // munion: the contribution, a set
	cslots []uint32  // hash of (group, contributor) → contribution + 1

	dirty []uint32 // groups changed since the last flush, in no particular order

	probe []uint32 // the key being looked up

	// Flush scratch, kept between rounds.
	ranks []uint64 // keyRank of the dirty groups' key vids, nKey per group
	order []uint32
	items []aggItem

	charged int64 // bytes of this table counted in evaluator.aggBytes
}

const (
	aggDirty   = 1 << iota // changed since the last flush
	aggEmitted             // an LAggCond group that already emitted its heads
)

// aggItem is one contribution of the group being folded.
type aggItem struct {
	rank   uint64 // the contributor's keyRank: the fold order
	cv, ci uint32
}

// group finds or creates the group of the current match; used is copied
// into a new group as its provenance.
func (t *aggTable) group(env []uint32, slots []int, used []uint64) uint32 {
	t.probe = t.probe[:0]
	for _, s := range slots {
		t.probe = append(t.probe, env[s])
	}
	if (len(t.gflag)+1)*4 >= len(t.gslots)*3 {
		t.gslots = growSlots(t.gslots, len(t.gflag), func(g int) uint64 {
			return hashRow(t.gkey[g*t.nKey : (g+1)*t.nKey])
		})
	}
	mask := uint64(len(t.gslots) - 1)
	for i := hashRow(t.probe) & mask; ; i = (i + 1) & mask {
		if t.gslots[i] == 0 {
			g := uint32(len(t.gflag))
			t.gslots[i] = g + 1
			t.gkey = append(t.gkey, t.probe...)
			t.gused = append(t.gused, used...)
			t.gflag = append(t.gflag, 0)
			t.gn = append(t.gn, 0)
			if t.fn != AggCount {
				t.ghead = append(t.ghead, 0)
			}
			return g
		}
		if g := t.gslots[i] - 1; slices.Equal(t.gkey[int(g)*t.nKey:(int(g)+1)*t.nKey], t.probe) {
			return g
		}
	}
}

// contribution finds the (group, contributor) entry or creates it, linked
// into the group's chain with its argument column left for the caller.
func (t *aggTable) contribution(g, cv uint32) (ci uint32, isNew bool) {
	if (len(t.cvid)+1)*4 >= len(t.cslots)*3 {
		t.cslots = growSlots(t.cslots, len(t.cvid), func(c int) uint64 {
			return mix64(uint64(t.cgroup[c])<<32 | uint64(t.cvid[c]))
		})
	}
	mask := uint64(len(t.cslots) - 1)
	for i := mix64(uint64(g)<<32|uint64(cv)) & mask; ; i = (i + 1) & mask {
		if t.cslots[i] == 0 {
			ci = uint32(len(t.cvid))
			t.cslots[i] = ci + 1
			t.cgroup = append(t.cgroup, g)
			t.cvid = append(t.cvid, cv)
			t.gn[g]++
			if t.fn != AggCount {
				t.cnext = append(t.cnext, t.ghead[g])
				t.ghead[g] = ci + 1
			}
			return ci, true
		}
		if ci = t.cslots[i] - 1; t.cgroup[ci] == g && t.cvid[ci] == cv {
			return ci, false
		}
	}
}

// growSlots doubles an open-addressed slot array (64 slots to begin with)
// and re-inserts entries 0..n-1 by their hash.
func growSlots(old []uint32, n int, hash func(i int) uint64) []uint32 {
	size := 2 * len(old)
	if size == 0 {
		size = 64
	}
	slots := make([]uint32, size)
	mask := uint64(size - 1)
	for e := 0; e < n; e++ {
		i := hash(e) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = uint32(e) + 1
	}
	return slots
}

func (t *aggTable) touch(g uint32) {
	if t.gflag[g]&aggDirty == 0 {
		t.gflag[g] |= aggDirty
		t.dirty = append(t.dirty, g)
	}
}

// bytes is the table's footprint: every column and scratch slice at its
// capacity times its element width.
func (t *aggTable) bytes() int64 {
	return int64(4*(cap(t.gkey)+cap(t.gn)+cap(t.ghead)+cap(t.gslots)+
		cap(t.cgroup)+cap(t.cvid)+cap(t.cnext)+cap(t.cslots)+
		cap(t.dirty)+cap(t.order)) +
		8*(cap(t.gused)+cap(t.cnum)+cap(t.ranks)) + cap(t.gflag) +
		16*cap(t.items) + 64*cap(t.cset))
}

// recordAgg is the aggregate terminal: the operator's build side, run once
// per complete body match. A contributor or argument that is a variable is
// read as the id in its slot (operandID, operandNum); only a computed one is
// evaluated and interned. A group is marked dirty only when a contribution is
// new or monotonically better — Compare's order, under which a NaN never
// replaces and is never replaced — so an unchanged group is not folded again.
func (w *walkCtx) recordAgg() error {
	c := w.c
	t := w.ev.aggState[c.ri]
	for i, s := range c.groupSlots {
		if w.env[s] == unboundVid {
			return fmt.Errorf("datalog: line %d: head variable %s unbound at aggregate", c.r.Line, c.groupVars[i])
		}
	}
	g := t.group(w.env, c.groupSlots, w.used)
	cv, err := w.operandID(&c.aggContrib)
	if err != nil {
		return err
	}
	switch t.fn {
	case AggCount:
		if _, isNew := t.contribution(g, cv); isNew {
			t.touch(g)
		}
	case AggUnion:
		v, err := w.operandVal(&c.aggArg)
		if err != nil {
			return err
		}
		if ci, isNew := t.contribution(g, cv); isNew {
			t.cset = append(t.cset, List(v))
			t.touch(g)
		} else if merged := List(append(t.cset[ci].Elems(), v)...); !Equal(merged, t.cset[ci]) {
			t.cset[ci] = merged
			t.touch(g)
		}
	default:
		n, err := w.operandNum(&c.aggArg)
		if err != nil {
			return err
		}
		if ci, isNew := t.contribution(g, cv); isNew {
			t.cnum = append(t.cnum, n)
			t.touch(g)
		} else if n > t.cnum[ci] {
			t.cnum[ci] = n
			t.touch(g)
		}
	}
	return nil
}

// operandNum returns the aggregated argument as a number — a variable's
// straight off the interner columns — or the engine's non-number error.
func (w *walkCtx) operandNum(o *cOperand) (float64, error) {
	if o.computed {
		if n, ok := w.operandArith(o); ok {
			return n, nil
		}
	} else if id, ok := o.arg.vidIn(w.env); ok {
		if n, ok := w.iv.num(id); ok {
			return n, nil
		}
	}
	v, err := w.operandVal(o)
	if err != nil {
		return 0, err
	}
	if v.k != KNum {
		return 0, fmt.Errorf("datalog: line %d: %s over non-number %s", w.c.r.Line, w.ev.aggState[w.c.ri].fn, v)
	}
	return v.n, nil
}

// flushAgg is the operator's probe side, run after each walk of an aggregate
// rule: every dirty group is folded and its heads emitted. Two orders here
// are load-bearing. Groups flush in ascending Key() order of their key vids
// — the order facts are inserted in, hence row positions, hence provenance
// ids and what a later rule's scan meets first. A group's contributions
// fold in ascending Key() order of the contributors — the order that fixes
// every float sum and product bit for bit. (Key() is a prefix-free code, so
// comparing keys component by component is comparing their concatenation.)
// Both sorts read keyRank and fall back to compareKeys on a tie, so no key
// is built; mcount needs no order for its fold.
func (ev *evaluator) flushAgg(c *cRule) (int, error) {
	t := ev.aggState[c.ri]
	if len(t.dirty) == 0 {
		return 0, nil
	}
	l := &c.r.Body[c.aggLit]
	iv := &ev.iv

	// order: positions in t.dirty, sorted by group key.
	nKey := t.nKey
	t.ranks, t.order = t.ranks[:0], t.order[:0]
	for d, g := range t.dirty {
		for _, v := range t.gkey[int(g)*nKey : (int(g)+1)*nKey] {
			t.ranks = append(t.ranks, iv.keyRank(v))
		}
		t.order = append(t.order, uint32(d))
	}
	slices.SortFunc(t.order, func(a, b uint32) int {
		ka, kb := t.gkey[int(t.dirty[a])*nKey:], t.gkey[int(t.dirty[b])*nKey:]
		for j := 0; j < nKey; j++ {
			if ka[j] == kb[j] {
				continue
			}
			if ra, rb := t.ranks[int(a)*nKey+j], t.ranks[int(b)*nKey+j]; ra != rb {
				return cmp.Compare(ra, rb)
			}
			return iv.compareKeys(ka[j], kb[j])
		}
		return 0
	})

	env := newEnv(c)
	added := 0
	for _, d := range t.order {
		g := t.dirty[d]
		t.gflag[g] &^= aggDirty
		agg, err := t.fold(g, iv)
		if err != nil {
			return added, fmt.Errorf("line %d: %w", c.r.Line, err)
		}
		for i, s := range c.groupSlots {
			env[s] = t.gkey[int(g)*nKey+i]
		}
		switch l.Kind {
		case LAggAssign:
			env[c.aggVarSlot] = ev.db.in.intern(agg)
		case LAggCond:
			rhs, err := evalExprS(l.R, c, env, &ev.iv)
			if err != nil {
				return added, err
			}
			ok, err := compare(l.Op, agg, rhs)
			if err != nil {
				return added, fmt.Errorf("line %d: %w", c.r.Line, err)
			}
			if !ok || t.gflag[g]&aggEmitted != 0 {
				continue
			}
			t.gflag[g] |= aggEmitted
		}
		n, err := ev.emitHeads(c, env, t.gused[int(g)*t.nUsed:(int(g)+1)*t.nUsed])
		added += n
		if err != nil {
			return added, err
		}
	}
	t.dirty = t.dirty[:0]
	b := t.bytes()
	ev.aggBytes += b - t.charged
	t.charged = b
	return added, nil
}

// fold folds group g's contributions in their contributors' Key() order.
// mcount has no order to keep and ranks nothing.
func (t *aggTable) fold(g uint32, iv *iview) (Val, error) {
	if t.fn == AggCount {
		return Num(float64(t.gn[g])), nil
	}
	t.items = t.items[:0]
	for ci1 := t.ghead[g]; ci1 != 0; ci1 = t.cnext[ci1-1] {
		cv := t.cvid[ci1-1]
		t.items = append(t.items, aggItem{rank: iv.keyRank(cv), cv: cv, ci: ci1 - 1})
	}
	slices.SortFunc(t.items, func(a, b aggItem) int {
		if a.rank != b.rank {
			return cmp.Compare(a.rank, b.rank)
		}
		return iv.compareKeys(a.cv, b.cv)
	})
	switch t.fn {
	case AggSum:
		s := 0.0
		for _, it := range t.items {
			s += t.cnum[it.ci]
		}
		return Num(s), nil
	case AggProd:
		p := 1.0
		for _, it := range t.items {
			p *= t.cnum[it.ci]
		}
		return Num(p), nil
	case AggUnion:
		var all []Val
		for _, it := range t.items {
			all = append(all, t.cset[it.ci].Elems()...)
		}
		return List(all...), nil
	}
	return Val{}, fmt.Errorf("unknown aggregate %s", t.fn)
}

// newEnv returns the rule's slot environment with every slot unbound.
func newEnv(c *cRule) []uint32 {
	env := make([]uint32, c.nSlots)
	for i := range env {
		env[i] = unboundVid
	}
	return env
}

// newWalk starts a walk of rule c whose literal restrictLi (-1: none) sees
// only rows [lo, hi). A walk that runs beside others brings its own
// interner view and buffers its emissions.
func (ev *evaluator) newWalk(c *cRule, restrictLi int, lo, hi uint32, iv *iview, buffer *emitBuf) *walkCtx {
	return &walkCtx{
		ev: ev, c: c,
		restrictLi: restrictLi, lo: lo, hi: hi,
		env: newEnv(c), iv: iv, buffer: buffer,
	}
}

func (ev *evaluator) evalRule(c *cRule, restrictLi int, lo, hi uint32) (int, error) {
	w := ev.newWalk(c, restrictLi, lo, hi, &ev.iv, nil)
	w.walk(0)
	if err := w.finish(); err != nil {
		return w.derived, err
	}
	if c.aggLit >= 0 {
		n, err := ev.flushAgg(c)
		w.derived += n
		if err != nil {
			return w.derived, err
		}
	}
	return w.derived, nil
}

// evalRuleAuto runs one rule pass, applying the cheap static short-circuits
// (empty required relation, ground heads already present) and escalating to
// partitioned parallel evaluation when the candidate set is large enough.
func (ev *evaluator) evalRuleAuto(c *cRule, restrictLi int, lo, hi uint32) (int, error) {
	if c.pureAtoms {
		for i := range c.steps {
			st := &c.steps[i]
			if st.kind == LAtom && st.li != restrictLi && st.rel.nrows() == 0 && !c.headPreds[st.pred] {
				return 0, nil // a required relation is empty: no body match exists
			}
		}
	}
	if c.ground {
		all := true
		for i := range c.heads {
			if _, ok := c.heads[i].rel.findRow(c.heads[i].groundRow); !ok {
				all = false
				break
			}
		}
		if all {
			return 0, nil // every (constant) head already derived
		}
	}
	if ev.workers > 1 && c.parallelOK && len(c.steps) > 0 {
		st0 := &c.steps[0]
		if st0.kind == LAtom && st0.mask == 0 {
			var clo, chi uint32
			if st0.li == restrictLi {
				clo, chi = lo, hi
			} else {
				clo, chi = 0, uint32(st0.rel.nrows())
			}
			if int(chi)-int(clo) >= parallelCandidateMin {
				return ev.evalRuleParallel(c, restrictLi, lo, hi, clo, chi)
			}
		}
	}
	return ev.evalRule(c, restrictLi, lo, hi)
}

// chunkOut is one partition's buffered output.
type chunkOut struct {
	emits emitBuf
	err   error
	done  bool
}

// evalRuleParallel evaluates one rule by partitioning the candidate rows of
// its first step across workers. Partitions buffer their emissions; the
// merge applies them in partition order, which reproduces the sequential
// engine's insertion order exactly: the rule's heads are disjoint from its
// body (parallelOK), so deferring the inserts cannot change any partition's
// matches.
func (ev *evaluator) evalRuleParallel(c *cRule, restrictLi int, lo, hi, clo, chi uint32) (int, error) {
	st0 := &c.steps[0]
	bounds := pool.ChunkBounds(int(chi - clo))
	outs := make([]chunkOut, len(bounds))
	pool.ForEach(ev.ctx, ev.workers, len(bounds), func(ci int) error {
		co := &outs[ci]
		w := ev.newWalk(c, restrictLi, lo, hi, &iview{in: ev.db.in}, &co.emits)
		b := bounds[ci]
		for pos := clo + uint32(b[0]); pos < clo+uint32(b[1]) && w.err == nil; pos++ {
			if w.err = w.spend(); w.err != nil {
				break
			}
			if !matchRow(st0, st0.rel.row(int(pos)), w.env) {
				continue
			}
			w.used = append(w.used[:0], fid(st0.pid, pos))
			w.walk(1)
		}
		co.err = w.finish()
		co.done = true
		return nil
	})

	nUsed := c.nUsed // body fact ids per emission (see emitBuf)
	derived := 0
	for ci := range outs {
		co := &outs[ci]
		if !co.done {
			// Only a cancelled context leaves a partition unattempted.
			if err := ev.ctxErr(); err != nil {
				return derived, err
			}
			return derived, fmt.Errorf("datalog: internal: partition %d not evaluated", ci)
		}
		rows := co.emits.rows
		for used := co.emits.used; len(used) > 0; used = used[nUsed:] {
			for hi2 := range c.heads {
				h := &c.heads[hi2]
				pos, isNew := h.rel.addRow(ev.db, rows[:len(h.args)])
				rows = rows[len(h.args):]
				if isNew {
					h.rel.setProv(pos, c.ri, used[:nUsed])
					derived++
				}
			}
		}
		if co.err != nil {
			// The erroring partition's pre-error emissions are merged above,
			// matching the sequential engine's state at its first error.
			return derived, co.err
		}
	}
	return derived, nil
}

// fixpoint saturates one stratum by semi-naive iteration. The delta for a
// predicate is a contiguous row range: every insert during a round appends
// in derivation order, and only this stratum's rules write its head
// relations.
func (ev *evaluator) fixpoint(stratum int, rules []*cRule) error {
	headRels := make(map[string]*relation)
	for _, c := range rules {
		for i := range c.heads {
			headRels[c.heads[i].pred] = c.heads[i].rel
		}
	}
	// pass runs one round and returns the row range it appended to each head
	// relation, the next round's delta. The seed pass (delta nil) evaluates
	// every rule over the whole database; a delta round re-evaluates a rule
	// once per body atom of this stratum that has new rows, restricted to
	// them. marks[i] holds the head relations' row counts when the seed pass
	// began rules[i]: that evaluation joined every row below them, so in the
	// first delta round rules[i]'s windows start at its marks — a skipped
	// combination could only re-derive a fact the seed already has, and one
	// holding a newer row is met through that row's own window.
	before := make(map[string]uint32, len(headRels))
	marks := make([]map[string]uint32, len(rules))
	pass := func(round int, delta map[string][2]uint32) (map[string][2]uint32, error) {
		for p, r := range headRels {
			before[p] = uint32(r.nrows())
		}
		derived := 0
		for ci, c := range rules {
			if delta == nil {
				marks[ci] = make(map[string]uint32, len(headRels))
				for p, r := range headRels {
					marks[ci][p] = uint32(r.nrows())
				}
				n, err := ev.evalRuleAuto(c, -1, 0, 0)
				derived += n
				if err != nil {
					return nil, err
				}
				continue
			}
			for li := range c.r.Body {
				l := &c.r.Body[li]
				if l.Kind != LAtom || ev.strata[l.Atom.Pred] != stratum {
					continue
				}
				rng, ok := delta[l.Atom.Pred]
				if round == 0 {
					rng[0] = max(rng[0], marks[ci][l.Atom.Pred])
				}
				if !ok || rng[0] >= rng[1] {
					continue
				}
				n, err := ev.evalRuleAuto(c, li, rng[0], rng[1])
				derived += n
				if err != nil {
					return nil, err
				}
			}
		}
		next := make(map[string][2]uint32)
		for p, r := range headRels {
			if n := uint32(r.nrows()); n > before[p] {
				next[p] = [2]uint32{before[p], n}
			}
		}
		ev.rounds++
		if tr := ev.opt.Trace; tr != nil && delta == nil {
			fmt.Fprintf(tr, "stratum %d seed: %d rules, %d facts derived, db %d\n", stratum, len(rules), derived, ev.db.Len())
		} else if tr != nil {
			fmt.Fprintf(tr, "stratum %d round %d: %d facts derived, db %d\n", stratum, round+1, derived, ev.db.Len())
		}
		return next, ev.chargeMemory()
	}

	delta, err := pass(0, nil)
	for round := 0; err == nil && len(delta) > 0; round++ {
		if round > ev.opt.MaxRounds {
			return fmt.Errorf("datalog: stratum %d exceeded %d rounds", stratum, ev.opt.MaxRounds)
		}
		if err := ev.ctxErr(); err != nil {
			return err
		}
		if ev.db.Len() > ev.opt.MaxFacts {
			return fmt.Errorf("datalog: database exceeded %d facts (runaway chase?)", ev.opt.MaxFacts)
		}
		delta, err = pass(round, delta)
	}
	return err
}

// runStrata saturates the strata one after another in ascending order, so
// each one reads the finished relations of those below it.
func (ev *evaluator) runStrata() error {
	ev.aggState = make([]*aggTable, len(ev.prog.Rules))
	ev.aggBytes = 0
	byStratum := make([][]*cRule, ev.nStrata)
	for i := range ev.prog.Rules {
		r := &ev.prog.Rules[i]
		if r.IsEGD || len(r.Body) == 0 {
			continue
		}
		c := ev.crules[i]
		if c.aggLit >= 0 {
			ev.aggState[i] = &aggTable{fn: r.Body[c.aggLit].Agg.Fn, nKey: len(c.groupSlots), nUsed: c.nUsed}
		}
		s := ev.strata[r.Heads[0].Pred]
		byStratum[s] = append(byStratum[s], c)
	}
	ev.resolvePlan(false)
	for s, rules := range byStratum {
		if len(rules) == 0 {
			continue
		}
		if err := ev.fixpoint(s, rules); err != nil {
			return err
		}
	}
	return nil
}

func (ev *evaluator) chargeMemory() error {
	b := ev.db.EstimatedBytes() + ev.aggBytes
	if b > ev.peak {
		ev.peak = b
	}
	if ev.opt.Governor == nil {
		return nil
	}
	if b <= ev.charged {
		return nil
	}
	//governcharge:ok incremental charge; RunContext defers ReleaseBytes(ev.charged) for the whole run
	if err := ev.opt.Governor.ReserveBytes(b - ev.charged); err != nil {
		return fmt.Errorf("datalog: database estimated at %d bytes: %w", b, err)
	}
	ev.charged = b
	return nil
}

// runEGDs applies every EGD over the saturated database, unifying labelled
// nulls and collecting violations between distinct constants. An EGD body is
// a compiled plan like any other, walked by the same join with the equality
// as its terminal (equate); the rules run one after another because each
// unification is read by the next match. What the pass found is left in
// ev.unified and ev.viols.
func (ev *evaluator) runEGDs() error {
	ev.resolvePlan(true)
	ev.unified, ev.viols = false, nil
	for _, c := range ev.crules {
		if c == nil || !c.r.IsEGD {
			continue
		}
		if err := ev.ctxErr(); err != nil {
			return err
		}
		if _, err := ev.evalRule(c, -1, 0, 0); err != nil {
			return err
		}
	}
	// The pass added no facts, but it may have built join indexes.
	return ev.chargeMemory()
}

// resolve chases the null-substitution map, guarding against cycles, and
// resolves list elements recursively.
func (ev *evaluator) resolve(v Val) Val {
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

// applySubst rewrites the database under the current null substitution.
// The rewrite walks predicates in sorted order and rows in insertion order,
// remapping row positions as rows merge, and then carries the provenance
// columns over: a merged row keeps the derivation of the lowest-positioned
// derived row that collapsed into it, its body fact ids remapped. A
// relation's input rows lead it and are rewritten first, so their images
// lead the rewritten relation: inputRows moves to where they end.
func (ev *evaluator) applySubst() {
	old := ev.db
	nd := &Database{in: old.in, rels: make(map[string]*relation, len(old.rels))}
	iv := iview{in: old.in}
	vidMemo := make(map[uint32]uint32)
	resolveVid := func(v uint32) uint32 {
		if nv, ok := vidMemo[v]; ok {
			return nv
		}
		nv := old.in.intern(ev.resolve(iv.val(v)))
		vidMemo[v] = nv
		return nv
	}
	preds := old.Predicates()
	remap := make(map[uint32][]uint32, len(preds)) // pid -> old row position -> new
	var nrow []uint32
	for _, pred := range preds {
		r := old.rels[pred]
		nr := nd.rel(pred)
		to := make([]uint32, r.nrows())
		nIn := ev.inputRows[pred]
		for pos := range to {
			nrow = nrow[:0]
			for _, v := range r.row(pos) {
				nrow = append(nrow, resolveVid(v))
			}
			to[pos], _ = nr.addRow(nd, nrow)
			if pos+1 == nIn {
				ev.inputRows[pred] = nr.nrows()
			}
		}
		remap[ev.pid(pred)] = to
	}
	var body []uint64
	for _, pred := range preds {
		r, nr := old.rels[pred], nd.rels[pred]
		to := remap[ev.pid(pred)]
		for pos := range r.prov {
			rule, b := r.provOf(uint32(pos))
			if rule < 0 {
				continue
			}
			if held, _ := nr.provOf(to[pos]); held >= 0 {
				continue
			}
			body = body[:0]
			for _, f := range b {
				body = append(body, fid(uint32(f>>32), remap[uint32(f>>32)][uint32(f)]))
			}
			nr.setProv(to[pos], rule, body)
		}
	}
	ev.db = nd
}

// Run evaluates the program in the extensional database it is handed and
// returns the derived result. The run derives into edb itself, and an EGD
// that unifies a null moves it to a rebuilt copy, so edb belongs to the run
// from the call on: a caller reads the result, never edb, and hands each
// run a database of its own.
func Run(p *Program, edb *Database, opt *Options) (*Result, error) {
	return RunContext(context.Background(), p, edb, opt)
}

// RunContext is Run with cancellation, in edb as Run is: the context is
// polled at round boundaries and by every walk once per 8192 of its match
// attempts, so a cancelled or deadline-expired context aborts the
// evaluation within a bounded amount of join work.
func RunContext(ctx context.Context, p *Program, edb *Database, opt *Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	strata, n, err := stratify(p)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{
		ctx:     ctx,
		prog:    p,
		opt:     opt.withDefaults(),
		db:      edb,
		strata:  strata,
		nStrata: n,
		nullCtr: edb.maxNullID(),
		skolem:  make(map[string]Val),
		subst:   make(map[uint64]Val),
		predIDs: make(map[string]uint32),
		memos:   sync.Pool{New: func() any { return new(numMemo) }},
	}
	ev.iv = iview{in: ev.db.in}
	ev.workers = ev.opt.Workers
	if ev.workers <= 0 {
		ev.workers = runtime.GOMAXPROCS(0)
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
	ev.crules = make([]*cRule, len(p.Rules))
	for i := range p.Rules {
		if len(p.Rules[i].Body) > 0 {
			ev.crules[i] = ev.compileRule(i)
		}
	}

	ev.inputRows = make(map[string]int, len(ev.db.rels))
	for pred, r := range ev.db.rels {
		ev.inputRows[pred] = r.nrows()
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
	type violKey struct {
		sid  int
		a, b uint32
	}
	seenViol := make(map[violKey]bool)
	ruleSID := make(map[string]int)
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
		ev.egdPasses++
		if err := ev.runEGDs(); err != nil {
			return nil, err
		}
		for _, v := range ev.viols {
			sid, ok := ruleSID[v.Rule]
			if !ok {
				sid = len(ruleSID)
				ruleSID[v.Rule] = sid
			}
			k := violKey{sid: sid, a: ev.db.in.intern(v.A), b: ev.db.in.intern(v.B)}
			if !seenViol[k] {
				seenViol[k] = true
				violations = append(violations, v)
			}
		}
		if !ev.unified {
			break
		}
		ev.applySubst()
	}
	derived := 0
	for pred, r := range ev.db.rels {
		derived += r.nrows() - ev.inputRows[pred]
	}
	return &Result{
		db:         ev.db,
		rules:      p.Rules,
		Violations: violations,
		pids:       ev.predIDs,
		preds:      ev.predNames,
		Stats: EvalStats{
			Rounds:        ev.rounds,
			Strata:        ev.nStrata,
			DerivedFacts:  derived,
			MatchAttempts: ev.work.Load(),
			MaxWork:       ev.opt.MaxWork,
			PeakBytes:     ev.peak,
			EGDPasses:     ev.egdPasses,
			Workers:       ev.workers,
		},
	}, nil
}
