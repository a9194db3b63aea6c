// Package fence holds the repo's four protocol-ordering vet passes as one
// table-driven pass. They share a shape: in a set of packages, a trigger — a
// call to a named function — is a finding unless a guard function is called
// somewhere in the same top-level declaration. A finding that is legitimate is waived with
// `//<rule>:ok <reason>` on its own or the preceding line; a waiver that
// covers nothing is itself a finding. _test.go files are skipped.
package fence

import (
	"go/ast"
	"slices"
	"strings"

	"vadasa/tools/analyzers/analysis"
)

// rule is one row of the table.
type rule struct {
	name     string   // analyzer name and waiver tag
	doc      string   // analyzer help text
	packages []string // package names the invariant is scoped to
	triggers []string // function names that need the guard
	from     string   // when set, only calls qualified <from>.<name>(…) trigger
	guards   []string // a call to any of these in the same declaration satisfies the rule; none = always a finding
	message  string   // diagnostic; %[1]s is the trigger name, %[2]s the enclosing function
}

// The four passes.
var (
	// Hotgroup guards the ownership of grouping on the hot paths: the
	// anonymization cycle (package anon) and the stream window (package
	// stream) get their risk from a risk.Live view, which maintains one
	// mdb.GroupIndex across iterations and batches precisely so that
	// per-step risk work scales with the delta. A stray full regroup there
	// silently reverts the dominant cost of Figure 7e, and a private
	// BuildGroupIndex regrows the bookkeeping (reservation, dirty sets,
	// rebuild on invalidation) the view exists to own. Waive a call that is
	// genuinely off the hot path — a memoized one-time computation, a
	// release-time verification sweep.
	Hotgroup = rule{
		name:     "hotgroup",
		doc:      "packages anon and stream must get grouping from risk.Live, not regroup or index on their own",
		packages: []string{"anon", "stream"},
		triggers: []string{"ComputeGroups", "ComputeInfos", "Frequencies", "BuildGroupIndex", "BuildIndex"},
		from:     "mdb",
		message:  "mdb.%[1]s in %[2]s: internal/risk owns grouping for the cycle and the stream window (risk.Live) — use it, or annotate //hotgroup:ok with why this call is off the hot path",
	}.analyzer()

	// Pairscan keeps the quadratic scan out of the risk path: a measure
	// that tests every tuple against every other (mdb.CompatibleTuple per
	// pair) is what made l-diversity and t-closeness take minutes where
	// k-anonymity took a tenth of a second, from the first null on. A group
	// measure reads what it needs off mdb.GroupInfo, which the grouping
	// kernel derives for all tuples at once; the scan survives as the test
	// oracles' definition of compatibility. Waive a test whose pairs are
	// bounded by something other than the table.
	Pairscan = rule{
		name:     "pairscan",
		doc:      "packages risk, anon and stream must not test tuples for compatibility pair by pair",
		packages: []string{"risk", "anon", "stream"},
		triggers: []string{"CompatibleTuple", "Compatible"},
		from:     "mdb",
		message:  "mdb.%[1]s in %[2]s: a compatibility test per pair of tuples is quadratic in the table — read the group off mdb.GroupInfo (the grouping kernel), or annotate //pairscan:ok with what bounds the pairs",
	}.analyzer()

	// Replfence guards replication fencing: in the packages that take part
	// in journal-shipping replication, a publish record may be journaled
	// only behind an epoch-fence check (checkFence, or the raw FenceCheck
	// hook). A demoted primary that publishes commits a release the promoted
	// peer may have already completed and served — exactly-once publication
	// is only exactly-once while every publish path consults the fence
	// first. Waive a publish whose fence check is established by the caller.
	Replfence = rule{
		name:     "replfence",
		doc:      "replicated publish paths must check the epoch fence before journaling a publish record",
		packages: []string{"stream", "replica"},
		triggers: []string{"appendPublish"},
		guards:   []string{"checkFence", "FenceCheck"},
		message:  "publish record journaled without an epoch-fence check in %[2]s: call checkFence first, or annotate //replfence:ok with why the caller holds the fence",
	}.analyzer()

	// Streamfence guards the stream release protocol's ordering: package
	// stream may journal a publish record only after journaling the matching
	// intent. The intent is the promise (sequence, window size, digest of
	// the exact bytes); a publish without it would commit a release recovery
	// can neither verify nor regenerate — the crash window between the two
	// records is precisely what the protocol exists to survive. Waive the
	// function completing an intent that an earlier call (or a crashed
	// incarnation) journaled.
	Streamfence = rule{
		name:     "streamfence",
		doc:      "package stream must journal a release intent before its publish record",
		packages: []string{"stream"},
		triggers: []string{"appendPublish"},
		guards:   []string{"appendIntent"},
		message:  "publish record journaled without an intent in %[2]s: call appendIntent first, or annotate //streamfence:ok with why the intent is already journaled",
	}.analyzer()
)

func (r rule) analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{Name: r.name, Doc: r.doc, Run: r.run}
}

func (r rule) run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if !slices.Contains(r.packages, file.Name.Name) ||
			strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ok := analysis.CollectWaivers(pass.Fset, file, r.name)
		for _, decl := range file.Decls {
			where := "package scope"
			if fn, isFn := decl.(*ast.FuncDecl); isFn {
				where = fn.Name.Name
			}
			var found []*ast.Ident
			guarded := false
			ast.Inspect(decl, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				name, from := callee(call)
				if name == nil {
					return true
				}
				if slices.Contains(r.guards, name.Name) {
					guarded = true
				}
				if slices.Contains(r.triggers, name.Name) && (r.from == "" || r.from == from) {
					found = append(found, name)
				}
				return true
			})
			if guarded {
				continue
			}
			for _, id := range found {
				if !ok.Suppresses(pass.Fset.Position(id.Pos()).Line) {
					pass.Reportf(id.Pos(), r.message, id.Name, where)
				}
			}
		}
		ok.ReportStale(pass)
	}
	return nil
}

// callee names the function a call invokes — f(…) or x.f(…) — and, for the
// second form with a plain identifier x, the qualifier.
func callee(call *ast.CallExpr) (name *ast.Ident, from string) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f, ""
	case *ast.SelectorExpr:
		if x, isIdent := f.X.(*ast.Ident); isIdent {
			from = x.Name
		}
		return f.Sel, from
	}
	return nil, ""
}
