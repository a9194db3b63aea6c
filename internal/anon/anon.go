// Package anon implements the smart anonymization of Section 4.3 and the
// anonymization cycle of Algorithm 2: local suppression with labelled nulls,
// global recoding over domain hierarchies, the greedy runtime heuristics of
// Section 4.4, and the statistics-preservation metrics of Section 5.1.
package anon

import (
	"fmt"
	"slices"

	"vadasa/internal/mdb"
)

// Decision records one anonymization step: which tuple and attribute were
// touched, what replaced what, and why. The decision log is what makes the
// cycle fully explainable — every suppression is motivated by the specific
// risk binding that triggered it.
type Decision struct {
	RowID     int       // artificial identifier I of the triggering tuple
	Attr      string    // quasi-identifier that was anonymized
	Old, New  mdb.Value // value before and after
	Method    string    // "local-suppression" or "global-recoding"
	Risk      float64   // disclosure risk that triggered the step
	Iteration int       // anonymization-cycle iteration
	// AffectedRows counts the tuples changed by the step: 1 for local
	// suppression, possibly many for global recoding.
	AffectedRows int
}

// String implements fmt.Stringer. The old and new values are rendered as
// digests: decision logs and explain output are operational surfaces, and
// the exact cell values live (waived, access-controlled) in the journal.
// Consumers needing the raw values read the Old/New fields directly.
func (d Decision) String() string {
	return fmt.Sprintf("iter %d: %s on tuple %d: %s %s -> %s (risk %.4g, %d rows)",
		d.Iteration, d.Method, d.RowID, d.Attr, d.Old.Redacted(), d.New.Redacted(), d.Risk, d.AffectedRows)
}

// Context carries the state an anonymization step works in: the dataset
// being anonymized, its quasi-identifier indexes, and one mdb.CodeTable of
// them under maybe-match — copied by the loop from its risk view's index when
// that codes the same, else built at the first read. The selectivity counts are
// a snapshot of the table taken at the first step of an iteration that reads
// them and frozen for the rest of that iteration, so they are at most one
// iteration stale — greedy tie-breaking quality, at a fraction of the cost of
// per-step scans; FreqWithout groups the table as it stands at the
// iteration's first call per attribute. The loop keeps one Context chain
// alive: it reports the cells every step replaced through applied and moves
// to the following iteration with next, which carries the table over instead
// of recoding the dataset.
type Context struct {
	Dataset *mdb.Dataset
	QI      []int

	// tab is nil until the loop seeds it or the first read, and after a cell
	// it has no suppression for; the next read codes the dataset as it then
	// stands.
	tab         *mdb.CodeTable
	marg        *mdb.Counts
	freqWithout map[int][]int
}

// cell is one value a step replaced: row position, attribute index and what
// stood there before. attr is -1 when the decision is not a single-cell
// suppression (a global recoding rewrites arbitrarily many cells to
// constants): there is then no delta form for the code table or the risk
// view, and no undo.
type cell struct {
	pos, attr int
	old       mdb.Value
}

// appendCells appends the cells a step's decisions on row replaced.
func appendCells(cells []cell, d *mdb.Dataset, row int, decisions []Decision) []cell {
	for _, dec := range decisions {
		c := cell{pos: row, attr: -1, old: dec.Old}
		if dec.Method == "local-suppression" {
			c.attr = d.AttrIndex(dec.Attr)
		}
		cells = append(cells, c)
	}
	return cells
}

// NewContext returns a step context for the dataset.
func NewContext(d *mdb.Dataset, qi []int) *Context {
	return &Context{Dataset: d, QI: qi}
}

// applied tells the context that a step has just replaced the cells in the
// dataset: a suppression is re-coded in the table, anything else drops it.
// A selectivity snapshot already taken does not see them.
func (c *Context) applied(cells []cell) {
	for _, cl := range cells {
		if c.tab == nil {
			return
		}
		if cl.attr < 0 || c.tab.SuppressCell(cl.pos, cl.attr) != nil {
			c.tab = nil
		}
	}
}

// next returns the context of the following iteration: the code table is
// carried over, the selectivity snapshot and the FreqWithout cache dropped.
func (c *Context) next() *Context {
	return &Context{Dataset: c.Dataset, QI: c.QI, tab: c.tab}
}

// table returns the code table, coding the dataset as it stands when there
// is none.
func (c *Context) table() *mdb.CodeTable {
	if c.tab == nil {
		//hotgroup:ok the step context's one coding of the dataset, carried across iterations; only a global recoding makes the next read code it again
		c.tab = mdb.NewCodeTable(c.Dataset, c.QI, mdb.MaybeMatch)
	}
	return c.tab
}

// FreqWithout returns, for every row, the maybe-match frequency the row
// would have if the given quasi-identifier were ignored — the group size the
// row lands in after suppressing that attribute. One grouping of the table's
// other columns per attribute serves every risky tuple of the iteration,
// which is what makes the exact-gain greedy affordable (the “most risky
// first” routing strategy of Section 4.4 relies on a program computing the
// resulting risk).
func (c *Context) FreqWithout(attr int) []int {
	if fs, ok := c.freqWithout[attr]; ok {
		return fs
	}
	rest := make([]int, 0, len(c.QI)-1)
	for j, a := range c.QI {
		if a != attr {
			rest = append(rest, j)
		}
	}
	infos := c.table().Group(rest)
	fs := make([]int, len(infos))
	for i, g := range infos {
		fs[i] = g.Freq
	}
	if c.freqWithout == nil {
		c.freqWithout = make(map[int][]int, len(c.QI))
	}
	c.freqWithout[attr] = fs
	return fs
}

// Marginal returns how many rows carry a value compatible with v at the
// attribute under maybe-match — the selectivity measure behind
// AttrMostSelective — in the iteration's snapshot.
func (c *Context) Marginal(attr int, v mdb.Value) int {
	if c.marg == nil {
		c.marg = c.table().Counts()
	}
	n, nulls := c.marg.Of(slices.Index(c.QI, attr), v)
	return n + nulls
}

// Anonymizer applies one minimal anonymization step to a risky tuple
// (the polymorphic #anonymize of Algorithm 2).
type Anonymizer interface {
	Name() string
	// Step mutates ctx.Dataset so the disclosure risk of row (an index
	// into Dataset.Rows) decreases. It reports false when nothing further
	// can be done for that row.
	Step(ctx *Context, row int) ([]Decision, bool)
}

// AttrChoice selects which quasi-identifier of a risky tuple is anonymized
// first (the second runtime question of Section 4.4).
type AttrChoice int

// Attribute-choice heuristics.
const (
	// AttrMostSelective is the paper's “most risky first” greedy: the
	// attribute whose value is rarest in the dataset is anonymized first,
	// which removes sample uniques with the fewest steps and so preserves
	// the most data utility (the Figure 5 discussion).
	AttrMostSelective AttrChoice = iota
	// AttrLeastSelective is the adversarial ablation: anonymize the most
	// common value first.
	AttrLeastSelective
	// AttrSchemaOrder ignores selectivity and follows schema order — the
	// naive binding order of Algorithm 7 without a routing strategy.
	AttrSchemaOrder
	// AttrMaxGain simulates the effect of each candidate suppression and
	// picks the attribute whose removal lands the tuple in the largest
	// aggregation group — the strongest form of the paper's greedy, where
	// the routing strategy itself runs the risk computation. Tuples risky
	// on different combinations tend to collapse into the same suppressed
	// pattern, which is what keeps information loss low on very unbalanced
	// data (the Figure 7b discussion).
	AttrMaxGain
)

// String implements fmt.Stringer.
func (c AttrChoice) String() string {
	switch c {
	case AttrMostSelective:
		return "most-selective-first"
	case AttrLeastSelective:
		return "least-selective-first"
	case AttrSchemaOrder:
		return "schema-order"
	case AttrMaxGain:
		return "max-gain"
	default:
		return fmt.Sprintf("AttrChoice(%d)", int(c))
	}
}

// chooseAttr orders the candidate attribute indexes of a row according to
// the heuristic and returns them best-first.
func chooseAttr(ctx *Context, row int, candidates []int, choice AttrChoice) []int {
	if len(candidates) <= 1 || choice == AttrSchemaOrder {
		return candidates
	}
	type scored struct {
		attr  int
		count int
	}
	scores := make([]scored, len(candidates))
	r := ctx.Dataset.Rows[row]
	for i, a := range candidates {
		var count int
		if choice == AttrMaxGain {
			count = ctx.FreqWithout(a)[row]
		} else {
			count = ctx.Marginal(a, r.Values[a])
		}
		scores[i] = scored{attr: a, count: count}
	}
	// Insertion sort: candidate lists are tiny (≤ 9 attributes), and ties
	// break on schema order for determinism.
	for i := 1; i < len(scores); i++ {
		for j := i; j > 0; j-- {
			better := false
			switch choice {
			case AttrMostSelective:
				better = scores[j].count < scores[j-1].count
			case AttrLeastSelective:
				better = scores[j].count > scores[j-1].count
			case AttrMaxGain:
				better = scores[j].count > scores[j-1].count
			}
			if !better {
				break
			}
			scores[j], scores[j-1] = scores[j-1], scores[j]
		}
	}
	out := make([]int, len(scores))
	for i, s := range scores {
		out[i] = s.attr
	}
	return out
}
