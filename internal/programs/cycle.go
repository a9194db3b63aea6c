package programs

import (
	"context"
	"fmt"
	"strings"

	"vadasa/internal/anon"
	"vadasa/internal/datalog"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// This file closes the loop on the paper's central claim: the anonymization
// cycle of Algorithm 2 with the local suppression of Algorithm 7 can run
// entirely as reasoning. The iteration itself is anon.Loop's, the one driver
// the native cycle and a stream's release gate run; what reasoning supplies
// are its two plug-ins. Assessor (twins.go) is the risk source: one chase of
// a measure's declarative twin per evaluation. Suppression is the
// anonymizer: one chase of Algorithm 7 over the risky tuple, whose
// existential head invents the labelled null. The engine's labelled nulls
// follow the standard (Skolem) semantics, so the declarative cycle is the
// paper's Figure 7c baseline; the maybe-match refinement lives in the native
// engine layer (internal/mdb) until the engine groups by it (PAPER.md §4.3).

// SuppressionProgram generates Algorithm 7 for a schema with q
// quasi-identifiers: for every attribute position j there is a rule that
// rewrites a tuple flagged by suppress<j>(I) into tuplenext with a fresh
// labelled null at position j; unflagged tuples are copied. One tuple is
// suppressed on at most one position per pass (the cycle's “minimum amount
// of information” step).
func SuppressionProgram(q int) *datalog.Program {
	var b strings.Builder
	vars := make([]string, q)
	for i := range vars {
		vars[i] = fmt.Sprintf("V%d", i+1)
	}
	all := strings.Join(vars, ",")
	for j := 0; j < q; j++ {
		head := make([]string, q)
		copy(head, vars)
		head[j] = "Z" // existential: the invented labelled null
		body := make([]string, q)
		copy(body, vars)
		body[j] = "_" + vars[j] // suppressed value: read but never propagated
		fmt.Fprintf(&b, "tuplenext(I,%s,W) :- tuple(I,%s,W), suppress%d(I).\n",
			strings.Join(head, ","), strings.Join(body, ","), j+1)
	}
	fmt.Fprintf(&b, "tuplenext(I,%s,W) :- tuple(I,%s,W), not flagged(I).\n", all, all)
	for j := 0; j < q; j++ {
		fmt.Fprintf(&b, "flagged(I) :- suppress%d(I).\n", j+1)
	}
	return mustParse(b.String())
}

// Suppression is Algorithm 7 as an anon.Anonymizer: a step flags the risky
// tuple on its leftmost non-null quasi-identifier (the binding order of
// Algorithm 7 without a routing strategy), chases SuppressionProgram over
// that one tuple and writes the labelled null the existential rule invented
// back as a fresh null of the dataset. Engine null ids are fresh per run, so
// each maps to Dataset.Nulls.Fresh() and symbols stay distinct across steps.
// The zero value is ready; like the loop that steps it, it is not safe for
// concurrent use.
type Suppression struct {
	prog *datalog.Program // SuppressionProgram(len(QI)), parsed at the first step
}

// Name implements anon.Anonymizer.
func (*Suppression) Name() string { return "local-suppression" }

// Step implements anon.Anonymizer. It reports false when every
// quasi-identifier of the tuple is already null.
func (s *Suppression) Step(ctx *anon.Context, row int) ([]anon.Decision, bool) {
	d := ctx.Dataset
	r := d.Rows[row]
	pos := -1
	for j, a := range ctx.QI {
		if !r.Values[a].IsNull() {
			pos = j
			break
		}
	}
	if pos < 0 {
		return nil, false
	}
	if s.prog == nil {
		s.prog = SuppressionProgram(len(ctx.QI))
	}
	suppressionChase(s.prog, r, ctx.QI, pos)
	attr := ctx.QI[pos]
	old, null := r.Values[attr], d.Nulls.Fresh()
	r.Values[attr] = null
	return []anon.Decision{{
		RowID:        r.ID,
		Attr:         d.Attrs[attr].Name,
		Old:          old,
		New:          null,
		Method:       s.Name(),
		AffectedRows: 1,
	}}, true
}

// suppressionChase runs Algorithm 7 over one tuple flagged at quasi-identifier
// position pos. It takes no context: the chase is bounded by its one tuple,
// and the loop polls its own between steps. A fixed program over one
// well-formed fact failing, or deriving anything but that tuple with a
// labelled null at the flagged position, is a bug in this package, never bad
// input (see mustParse).
func suppressionChase(prog *datalog.Program, r *mdb.Row, qi []int, pos int) {
	edb := datalog.NewDatabase()
	tupleFact(edb.Loader("tuple"), r, qi)
	edb.Add(fmt.Sprintf("suppress%d", pos+1), datalog.Num(float64(r.ID)))
	res, err := datalog.Run(prog, edb, nil)
	if err != nil {
		panic(fmt.Errorf("programs: suppression chase: %w", err))
	}
	if next := res.Facts("tuplenext"); len(next) != 1 || next[0][1+pos].Kind() != datalog.KNull {
		panic(fmt.Errorf("programs: suppression chase over tuple %d derived %d tuples and no null at position %d", r.ID, len(next), pos+1))
	}
}

// DeclarativeCycle runs the anonymization cycle for k-anonymity with local
// suppression purely through reasoning passes, on a copy of d: the cycle of
// anon.Run with both plug-ins declarative, under the configuration that
// matches the engine — standard null semantics, dataset order, every risky
// tuple stepped each iteration. Intended for small datasets: every iteration
// re-reasons over the whole microdata DB.
func DeclarativeCycle(d *mdb.Dataset, k int) (*anon.Result, error) {
	return DeclarativeCycleContext(context.Background(), d, k)
}

// DeclarativeCycleContext is DeclarativeCycle with cancellation: the context
// (and the resource governor it carries) is threaded into every risk chase
// and polled between suppression steps.
func DeclarativeCycleContext(ctx context.Context, d *mdb.Dataset, k int) (*anon.Result, error) {
	return anon.RunContext(ctx, d, anon.Config{
		Assessor:      Assessor{Measure: risk.KAnonymity{K: k}},
		Threshold:     0.5,
		Anonymizer:    &Suppression{},
		Semantics:     mdb.StandardNulls,
		Order:         anon.OrderByID,
		BatchFraction: 1,
	})
}
