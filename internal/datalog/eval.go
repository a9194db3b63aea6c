package datalog

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Database is a set of ground facts grouped by predicate.
//
// Storage is columnar and interned: every constant is interned once into a
// dense uint32 id (see interner in val.go) and each relation stores its
// facts as flat rows of ids in one arena. Dedup is an open-addressed set
// over row hashes, and join acceleration comes from per-column-set hash
// indexes built on demand by the evaluator's plan layer — there are no
// per-fact key strings anywhere.
type Database struct {
	in     *interner
	rels   map[string]*relation
	bytes  int64 // structural bytes (rows + dedup set + indexes)
	nfacts int
	adder  Loader // Add's loader, kept so a single insert allocates nothing
}

// relation holds one predicate's facts as flat rows in insertion order, of
// mixed arities if need be: offs delimits rows, row i is data[offs[i]:offs[i+1]].
type relation struct {
	data    []uint32
	offs    []uint32 // len(offs) == nrows+1, offs[0] == 0
	set     rowSet
	indexes []*joinIndex
	// prov records, by row position, how each fact was first derived: the
	// producing rule and the body facts it matched, as a window of
	// provBody. Rows at or past len(prov) — every row of a relation no
	// rule writes — are extensional, like rows whose rule is -1. An entry
	// is appended with its row, by one goroutine at a time (a partitioned
	// rule's rows arrive through its in-order merge), so the columns need
	// no lock and no merge.
	prov     []provEntry
	provBody []uint64
}

// provEntry is one fact's derivation. Body facts are fact ids — predicate
// id in the high word, row position in the low (see fid).
type provEntry struct {
	rule   int32 // index into the program's rules; -1 for extensional facts
	off, n uint32
}

// setProv records the derivation of the row at pos, padding the column with
// extensional entries for any earlier rows that have none.
func (r *relation) setProv(pos uint32, rule int, body []uint64) {
	for uint32(len(r.prov)) <= pos {
		r.prov = append(r.prov, provEntry{rule: -1})
	}
	r.prov[pos] = provEntry{rule: int32(rule), off: uint32(len(r.provBody)), n: uint32(len(body))}
	r.provBody = append(r.provBody, body...)
}

// provOf returns the derivation of the row at pos; the rule is -1 for an
// extensional fact.
func (r *relation) provOf(pos uint32) (rule int, body []uint64) {
	if pos >= uint32(len(r.prov)) || r.prov[pos].rule < 0 {
		return -1, nil
	}
	e := r.prov[pos]
	return int(e.rule), r.provBody[e.off : e.off+e.n]
}

func newRelation() *relation { return &relation{offs: []uint32{0}} }

func (r *relation) nrows() int { return len(r.offs) - 1 }

func (r *relation) row(i int) []uint32 { return r.data[r.offs[i]:r.offs[i+1]] }

// rowSet is the dedup structure: open addressing over row hashes, storing
// row positions + 1 (0 marks an empty slot). Collisions are resolved by
// comparing the actual rows, so hash quality only affects speed.
type rowSet struct {
	slots []uint32
	used  int
}

// hashRow is FNV-1a over the row's ids and length, finalised by mix64: FNV
// alone leaves the low bits a table masks to depending on the ids' low
// bits only.
func hashRow(row []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h ^= uint64(v)
		h *= 1099511628211
	}
	h ^= uint64(len(row))
	h *= 1099511628211
	return mix64(h)
}

func rowsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (r *relation) findRow(row []uint32) (uint32, bool) {
	if len(r.set.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(r.set.slots) - 1)
	for i := hashRow(row) & mask; ; i = (i + 1) & mask {
		s := r.set.slots[i]
		if s == 0 {
			return 0, false
		}
		pos := s - 1
		if rowsEqual(r.row(int(pos)), row) {
			return pos, true
		}
	}
}

// growSet rehashes the dedup set into n slots, a power of two.
func (r *relation) growSet(n int) {
	slots := make([]uint32, n)
	mask := uint64(n - 1)
	for pos := 0; pos < r.nrows(); pos++ {
		h := hashRow(r.row(pos)) & mask
		for slots[h] != 0 {
			h = (h + 1) & mask
		}
		slots[h] = uint32(pos) + 1
	}
	r.set.slots = slots
}

// rowOverhead is the estimated per-row cost beyond the ids themselves:
// the offs entry plus the amortized dedup-set slot.
const rowOverhead = 20

// indexEntryOverhead is the estimated per-row cost of one join index:
// the bucket slice entry plus amortized map bucket space.
const indexEntryOverhead = 16

// addRow appends a row unless present, returning its position and whether
// it was added. Every existing index of matching arity is updated
// synchronously, so facts derived mid-pass are visible to index scans the
// same way they are to full scans.
func (r *relation) addRow(db *Database, row []uint32) (uint32, bool) {
	if (r.set.used+1)*4 >= len(r.set.slots)*3 {
		r.growSet(max(2*len(r.set.slots), 16))
	}
	// One probe finds the row or the empty slot it belongs in.
	mask := uint64(len(r.set.slots) - 1)
	h := hashRow(row) & mask
	for ; r.set.slots[h] != 0; h = (h + 1) & mask {
		if pos := r.set.slots[h] - 1; rowsEqual(r.row(int(pos)), row) {
			return pos, false
		}
	}
	pos := uint32(r.nrows())
	r.data = append(r.data, row...)
	r.offs = append(r.offs, uint32(len(r.data)))
	r.set.slots[h] = pos + 1
	r.set.used++
	grow := int64(4*len(row) + rowOverhead)
	for _, ix := range r.indexes {
		if ix.arity == len(row) {
			ix.add(row, pos)
			grow += indexEntryOverhead
		}
	}
	db.bytes += grow
	db.nfacts++
	return pos, true
}

// grow makes room for rows more rows of cells ids in all: the arena, the
// offsets and the dedup set at the size addRow would grow them to.
func (r *relation) grow(rows, cells int) {
	if rows <= 0 {
		return
	}
	r.data = slices.Grow(r.data, cells)
	r.offs = slices.Grow(r.offs, rows)
	n := max(len(r.set.slots), 16)
	for (r.set.used+rows)*4 >= n*3 {
		n *= 2
	}
	if n > len(r.set.slots) {
		r.growSet(n)
	}
}

// joinIndex maps the hash of a column subset to the row positions carrying
// those column values, in ascending (= insertion) order. Buckets may mix
// rows whose key columns merely hash together — the matcher re-verifies
// every candidate — so the index changes how many rows are tried, not which match.
type joinIndex struct {
	arity int
	mask  uint64 // bit i set: column i is a key column
	m     map[uint64][]uint32
}

func (ix *joinIndex) keyOf(row []uint32) uint64 {
	h := uint64(14695981039346656037)
	for i, v := range row {
		if ix.mask&(1<<uint(i)) != 0 {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	return h
}

func (ix *joinIndex) add(row []uint32, pos uint32) {
	k := ix.keyOf(row)
	ix.m[k] = append(ix.m[k], pos)
}

// getIndex returns the relation's index over the given column mask for
// rows of the given arity, building and back-filling it on first use. Only
// the evaluator's plan resolution calls this, before any rule runs, so a
// delta partition always sees a frozen index list.
func (r *relation) getIndex(db *Database, arity int, mask uint64) *joinIndex {
	for _, ix := range r.indexes {
		if ix.arity == arity && ix.mask == mask {
			return ix
		}
	}
	ix := &joinIndex{arity: arity, mask: mask, m: make(map[uint64][]uint32)}
	n := 0
	for pos := 0; pos < r.nrows(); pos++ {
		row := r.row(pos)
		if len(row) == arity {
			ix.add(row, uint32(pos))
			n++
		}
	}
	r.indexes = append(r.indexes, ix)
	db.bytes += int64(n) * indexEntryOverhead
	return ix
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{in: newInterner(), rels: make(map[string]*relation)}
}

// Add inserts a fact; duplicates are ignored.
func (db *Database) Add(pred string, args ...Val) {
	db.addTuple(pred, Tuple(args))
}

func (db *Database) addTuple(pred string, t Tuple) bool {
	l := &db.adder
	l.db, l.rel = db, db.rel(pred)
	for i := range t {
		l.stage(&t[i])
	}
	return l.EndRow()
}

func (db *Database) rel(pred string) *relation {
	r, ok := db.rels[pred]
	if !ok {
		r = newRelation()
		db.rels[pred] = r
	}
	return r
}

// EstimatedBytes reports the database's running heap-size estimate: the
// structural footprint of the rows, dedup sets and join indexes plus the
// interned-value arena. Governed evaluations charge the growth of this
// figure against their memory budget every fixpoint round.
func (db *Database) EstimatedBytes() int64 { return db.bytes + db.in.bytes.Load() }

// Facts returns the facts of a predicate, sorted.
func (db *Database) Facts(pred string) []Tuple {
	return db.SortedRows(pred).tuples()
}

// Has reports whether the fact is present.
func (db *Database) Has(pred string, args ...Val) bool {
	_, ok := db.findFact(pred, args)
	return ok
}

// Len returns the total number of facts.
func (db *Database) Len() int { return db.nfacts }

// Predicates returns the sorted predicate names with at least one fact.
func (db *Database) Predicates() []string {
	var out []string
	for p, r := range db.rels {
		if r.nrows() > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// maxNullID returns the largest labelled-null id appearing in the database.
// It scans the stored rows rather than the interner: the interner keeps
// every value it ever interned, a null an EGD unified away among them, so it
// may hold nulls that occur in no fact.
func (db *Database) maxNullID() uint64 {
	var maxID uint64
	iv := iview{in: db.in}
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
	iv.refresh()
	for _, r := range db.rels {
		for _, v := range r.data {
			// Numbers and strings, nearly every cell, cost one byte load.
			if k := iv.kinds[v]; k == KNull || k == KList {
				scan(iv.val(v))
			}
		}
	}
	return maxID
}

// Violation reports an EGD demanding equality of two distinct constants — in
// Vada-SA these are surfaced for human-in-the-loop inspection rather than
// failing the chase.
type Violation struct {
	Rule string
	A, B Val
}

func (v Violation) String() string {
	return fmt.Sprintf("EGD violation: %s requires %s = %s", v.Rule, v.A, v.B)
}

// Options bound a reasoning run. Zero values select the defaults.
type Options struct {
	MaxFacts  int // abort when the database exceeds this many facts (default 1e6)
	MaxRounds int // abort a stratum fixpoint after this many rounds (default 1e5)
	// MaxWork caps the total number of fact-match attempts across the
	// whole run, EGD bodies included (default 1e9): the guard against join
	// explosions that burn CPU inside a single evaluation pass, where the
	// per-round fact and round caps never trigger. Join indexes prune
	// non-matching candidates before they are attempted, so the same
	// program consumes less of this budget than it did on the pre-index
	// engine.
	MaxWork int64
	// Workers caps the goroutines that evaluate the partitions of a rule
	// with a large delta (strata always run one after another): 0 means
	// GOMAXPROCS, 1 forces fully sequential evaluation. Results are
	// bit-identical across worker counts — parallelism changes wall clock,
	// never derived facts, provenance or null identities.
	Workers int
	// Trace, when set, receives one line per stratum fixpoint round with
	// the number of facts derived — the operational visibility a
	// production reasoner needs — in stratum order.
	Trace io.Writer
	// Governor, when set, is charged the growth of the database's
	// estimated byte size after every fixpoint round and EGD pass and
	// refunded when the run ends. A failed reservation aborts the run with the
	// governor's error, so a labelled-null-heavy chase trips a byte
	// budget long before the fact-count cap would. Declared locally so
	// this package needs no dependency on the governor implementation;
	// *govern.Governor satisfies it.
	Governor Governor
}

// Governor is the engine-facing slice of a resource governor: reserve
// estimated bytes before growing, release them when done.
type Governor interface {
	ReserveBytes(n int64) error
	ReleaseBytes(n int64)
}

func (o *Options) withDefaults() Options {
	out := Options{MaxFacts: 1_000_000, MaxRounds: 100_000, MaxWork: 1_000_000_000}
	if o != nil {
		if o.MaxFacts > 0 {
			out.MaxFacts = o.MaxFacts
		}
		if o.MaxRounds > 0 {
			out.MaxRounds = o.MaxRounds
		}
		if o.MaxWork > 0 {
			out.MaxWork = o.MaxWork
		}
		out.Workers = o.Workers
		out.Trace = o.Trace
		out.Governor = o.Governor
	}
	return out
}

// EvalStats describes what one reasoning run actually did — the
// observability block behind the paper's interactive-latency claim. Every
// count is exact and the same at every worker count: delta partitions buffer
// their emissions and merge in chunk order, so nothing is ever retried, and
// each walk settles its private attempt count before it returns. PeakBytes
// is sampled after every fixpoint round and EGD pass.
type EvalStats struct {
	// Rounds counts fixpoint rounds across all strata and EGD passes,
	// the seed passes included.
	Rounds int `json:"rounds"`
	// Strata is the number of strata the program stratified into.
	Strata int `json:"strata"`
	// DerivedFacts counts the result's facts that are not images of the
	// input database's facts under the EGD substitution: without EGDs,
	// the facts added beyond the input.
	DerivedFacts int `json:"derived_facts"`
	// MatchAttempts is the total fact-match work performed, the figure
	// MaxWork bounds.
	MatchAttempts int64 `json:"match_attempts"`
	// MaxWork echoes the effective work budget the run was held to.
	MaxWork int64 `json:"max_work"`
	// PeakBytes is the highest size estimate — the database plus the
	// aggregate operators' tables — observed at a round boundary: the
	// figure charged to the memory governor.
	PeakBytes int64 `json:"peak_bytes"`
	// EGDPasses counts outer chase passes (strata saturation + EGD
	// application); 1 for programs without EGDs.
	EGDPasses int `json:"egd_passes"`
	// Workers is the effective cap on delta-partition workers.
	Workers int `json:"workers"`
}

// Result is the outcome of a reasoning run: the derived database (input facts
// included) plus any EGD violations encountered.
type Result struct {
	db         *Database
	rules      []Rule
	pids       map[string]uint32 // predicate name -> dense id (provenance keys)
	preds      []string          // dense id -> predicate name
	Violations []Violation
	// Stats describes the work the run performed.
	Stats EvalStats
}

// Facts returns the derived facts of a predicate, sorted.
func (r *Result) Facts(pred string) []Tuple { return r.db.Facts(pred) }

// Has reports whether a fact was derived (or given).
func (r *Result) Has(pred string, args ...Val) bool { return r.db.Has(pred, args...) }

// DB exposes the derived database.
func (r *Result) DB() *Database { return r.db }

// literalOrder picks an evaluation order for a rule body: at each step the
// first literal whose requirements are met — positive atoms any time,
// everything else once its variables are bound. Aggregates go last.
func literalOrder(r *Rule) ([]int, error) {
	if len(r.Body) == 0 {
		return nil, nil
	}
	bound := make(map[string]bool)
	done := make([]bool, len(r.Body))
	var order []int
	aggIdx := -1
	for i, l := range r.Body {
		if l.Kind == LAggAssign || l.Kind == LAggCond {
			aggIdx = i
			done[i] = true
		}
	}
	exprReady := func(e Expr) bool {
		ready := true
		ExprVars(e, func(v string) { ready = ready && bound[v] })
		return ready
	}
	for len(order) < len(r.Body)-btoi(aggIdx >= 0) {
		picked := -1
		for i, l := range r.Body {
			if done[i] {
				continue
			}
			ready := false
			switch l.Kind {
			case LAtom:
				ready = true
			case LNegAtom:
				ready = true
				for _, t := range l.Atom.Args {
					if t.Kind == TVar && !bound[t.Name] {
						ready = false
						break
					}
				}
			case LCmp:
				ready = exprReady(l.L) && exprReady(l.R)
			case LAssign:
				ready = exprReady(l.AssignE)
			}
			if ready {
				picked = i
				break
			}
		}
		if picked == -1 {
			return nil, fmt.Errorf("datalog: line %d: cannot order body literals of rule %s",
				r.Line, r.String())
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
	if aggIdx >= 0 {
		order = append(order, aggIdx)
	}
	return order, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ctxPollMask throttles cancellation polling inside the innermost join
// loops: no walk spends more than 8192 fact-match attempts without checking
// the context (walkCtx.settle), cheap enough to be invisible next to the
// matching work while still bounding the latency between cancellation and
// the evaluator unwinding.
const ctxPollMask = 8192 - 1

func compare(op string, l, r Val) (bool, error) {
	switch op {
	case OpEq:
		return Equal(l, r), nil
	case OpNe:
		return !Equal(l, r), nil
	case OpIn:
		return Contains(r, l), nil
	}
	if l.k == KList || r.k == KList {
		return false, fmt.Errorf("ordered comparison %q on list value", op)
	}
	c := Compare(l, r)
	switch op {
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("unknown comparison %q", op)
}
