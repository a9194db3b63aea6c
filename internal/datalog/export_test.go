package datalog

// Test-only exports. EquivCheck holds the engine to two things at every
// worker count. Its model must be the reference chase's (reference_test.go)
// up to a renaming of the labelled nulls it invents, with the same
// violations, and every provenance entry must be a derivation. Its own
// choices — insertion order, null ids, first derivations, explanations,
// violation order, diagnostics — must match the digest recorded for the
// case in testdata/engine.digests. External test packages (which can import
// internal/programs without an import cycle) drive it over the declarative
// program library.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// EquivWorkers are the worker counts every equivalence check runs under:
// forced-sequential and forced-parallel evaluation must be bit-identical.
var EquivWorkers = []int{1, 4}

// EquivCheck runs the program at each of EquivWorkers and fails the test
// unless every run matches the reference chase, carries valid provenance
// and reproduces the case's recorded digest. opt must use budgets generous
// enough that neither side trips them: a refusal is compared only as a
// refusal, since the reference counts no match attempts. Every run
// evaluates in a copy of edb bulk-loaded cell by cell, so edb is left as it
// was.
func EquivCheck(t testing.TB, name string, p *Program, edb *Database, opt *Options) {
	t.Helper()
	equivRuns(t, name, p, edb, opt, true)
}

// equivRuns is EquivCheck; pin false leaves out the recorded digest, for
// inputs no digest was recorded for.
func equivRuns(t testing.TB, name string, p *Program, edb *Database, opt *Options, pin bool) {
	t.Helper()
	input := inputFacts(edb)
	model, refErr := refRun(p, input, opt)
	fixed := make(map[uint64]bool) // the input's nulls: a renaming leaves them be
	for _, ts := range input {
		for _, tu := range ts {
			for _, v := range tu {
				collectNulls(v, fixed)
			}
		}
	}
	for _, workers := range EquivWorkers {
		o := Options{}
		if opt != nil {
			o = *opt
		}
		o.Workers = workers
		res, err := Run(p, BulkCopy(edb), &o)
		tag := name + "/workers=" + strconv.Itoa(workers)
		switch {
		case (refErr == nil) != (err == nil):
			t.Fatalf("%s: the engine answers %v, the reference %v", tag, err, refErr)
		case err == nil:
			sameModel(t, tag, fixed, model, res)
			checkProvenance(t, tag, p, res)
		}
		if pin {
			checkDigest(t, t.Name()+"/"+tag, engineDigest(res, err, true))
		}
	}
}

// InsertionOrderCheck runs the program at one, two and four workers and
// requires every predicate's facts in the same insertion order — the order
// provenance ids, labelled-null minting and every later scan are built on —
// and that order to be the one recorded for the case.
func InsertionOrderCheck(t testing.TB, name string, p *Program, edb *Database, opt *Options) {
	t.Helper()
	var digests []string
	for _, workers := range []int{1, 2, 4} {
		o := Options{}
		if opt != nil {
			o = *opt
		}
		o.Workers = workers
		res, err := Run(p, BulkCopy(edb), &o)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		if digests = append(digests, engineDigest(res, nil, false)); digests[0] != digests[len(digests)-1] {
			t.Fatalf("%s: insertion order at workers=%d differs from workers=1", name, workers)
		}
	}
	checkDigest(t, t.Name()+"/"+name+"/order", digests[0])
}

// BulkCopy re-loads a database through the Loader's typed cell calls, rows
// in insertion order, strings from a byte buffer the way the daemon passes
// them. A run evaluates in the database it is handed, so a test that runs
// one database more than once hands each run a copy.
func BulkCopy(db *Database) *Database {
	out := NewDatabase()
	for _, pred := range db.Predicates() {
		l := out.Loader(pred)
		rows := db.Rows(pred)
		for i := 0; i < rows.Len(); i++ {
			row := rows.Row(i)
			for j := 0; j < row.Len(); j++ {
				switch v := row.At(j); v.Kind() {
				case KStr:
					l.StrBytes([]byte(v.StrVal()))
				case KNum:
					l.Num(v.NumVal())
				case KNull:
					l.Null(v.NullID())
				default:
					l.Val(v)
				}
			}
			l.EndRow()
		}
	}
	return out
}

// inputFacts reads a database's facts by predicate, in insertion order.
func inputFacts(db *Database) map[string][]Tuple {
	out := make(map[string][]Tuple)
	for _, pred := range db.Predicates() {
		rows := db.Rows(pred)
		for i := 0; i < rows.Len(); i++ {
			out[pred] = append(out[pred], rows.Row(i).Tuple())
		}
	}
	return out
}

func collectNulls(v Val, into map[uint64]bool) {
	switch v.Kind() {
	case KNull:
		into[v.NullID()] = true
	case KList:
		for _, e := range v.Elems() {
			collectNulls(e, into)
		}
	}
}

// sameModel fails unless a renaming of the nulls outside fixed carries the
// engine's facts onto the reference model's, and its violations with them.
func sameModel(t testing.TB, tag string, fixed map[uint64]bool, m *refModel, res *Result) {
	t.Helper()
	got := inputFacts(res.DB())
	want := make(map[string][]Tuple)
	for pred, fs := range m.rels {
		for _, f := range fs {
			want[pred] = append(want[pred], f.t)
		}
	}
	ren, why := nullRenaming(got, want, fixed)
	if why != "" {
		t.Fatalf("%s: the engine's model is not the reference's: %s", tag, why)
	}
	viols := func(vs []Violation, ren map[uint64]uint64) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.Rule + " | " + renamed(v.A, ren).Key() + " | " + renamed(v.B, ren).Key()
		}
		sort.Strings(out)
		return out
	}
	if g, w := viols(res.Violations, ren), viols(m.viols, nil); strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Fatalf("%s: violations differ:\n--- engine ---\n%s\n--- reference ---\n%s",
			tag, strings.Join(g, "\n"), strings.Join(w, "\n"))
	}
}

func renamed(v Val, ren map[uint64]uint64) Val {
	switch v.Kind() {
	case KNull:
		if to, ok := ren[v.NullID()]; ok {
			return NullVal(to)
		}
	case KList:
		elems := make([]Val, len(v.Elems()))
		for i, e := range v.Elems() {
			elems[i] = renamed(e, ren)
		}
		return List(elems...)
	}
	return v
}

// nullRenaming finds a bijection between the nulls outside fixed of a and
// of b that carries a's facts onto b's, predicate by predicate, or says why
// there is none. Colour refinement names every null by the facts it sits in,
// its neighbours named by their colours; nulls it cannot tell apart are
// tried against each other one pair at a time.
func nullRenaming(a, b map[string][]Tuple, fixed map[uint64]bool) (map[uint64]uint64, string) {
	preds := func(m map[string][]Tuple) string {
		var out []string
		for p, fs := range m {
			out = append(out, fmt.Sprintf("%s/%d", p, len(fs)))
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	if pa, pb := preds(a), preds(b); pa != pb {
		return nil, fmt.Sprintf("predicates and fact counts differ:\n  engine:    %s\n  reference: %s", pa, pb)
	}
	sides := [2]*nullSide{newNullSide(a, fixed), newNullSide(b, fixed)}
	if len(sides[0].nulls) != len(sides[1].nulls) {
		return nil, fmt.Sprintf("%d invented nulls, the reference %d", len(sides[0].nulls), len(sides[1].nulls))
	}
	if ren := individualize(sides, a, b, 0); ren != nil {
		return ren, ""
	}
	// No renaming: report the facts that differ with their nulls blanked.
	blank := &nullSide{fixed: fixed, color: map[uint64]int{}}
	facts := [2]map[string]bool{{}, {}}
	for i, m := range []map[string][]Tuple{a, b} {
		for p, fs := range m {
			for _, f := range fs {
				facts[i][p+blank.shape(f, 0)] = true
			}
		}
	}
	var diff []string
	for i, side := range []string{"engine only:    ", "reference only: "} {
		for k := range facts[i] {
			if !facts[1-i][k] {
				diff = append(diff, side+k)
			}
		}
	}
	sort.Strings(diff)
	return nil, "no renaming of the nulls fits\n" + strings.Join(diff[:min(len(diff), 20)], "\n")
}

// nullSide is one model's facts that hold invented nulls, and each null's
// colour.
type nullSide struct {
	fixed  map[uint64]bool
	preds  []string // the predicate of each tuple below
	tuples []Tuple
	nulls  []uint64
	in     map[uint64][]int // null -> the facts it occurs in
	color  map[uint64]int
}

func newNullSide(m map[string][]Tuple, fixed map[uint64]bool) *nullSide {
	s := &nullSide{fixed: fixed, in: make(map[uint64][]int), color: make(map[uint64]int)}
	for pred, fs := range m {
		for _, f := range fs {
			ns := make(map[uint64]bool)
			for _, v := range f {
				collectNulls(v, ns)
			}
			for n := range ns {
				if fixed[n] {
					continue
				}
				if _, seen := s.in[n]; !seen {
					s.nulls = append(s.nulls, n)
				}
				s.in[n] = append(s.in[n], len(s.tuples))
			}
			if len(ns) > 0 {
				s.preds = append(s.preds, pred)
				s.tuples = append(s.tuples, f)
			}
		}
	}
	sort.Slice(s.nulls, func(i, j int) bool { return s.nulls[i] < s.nulls[j] })
	return s
}

// shape spells a tuple with every invented null by its colour and self, if
// not zero, as "*".
func (s *nullSide) shape(t Tuple, self uint64) string {
	var b strings.Builder
	var spell func(v Val)
	spell = func(v Val) {
		switch {
		case v.Kind() == KNull && v.NullID() == self:
			b.WriteString("*")
		case v.Kind() == KNull && !s.fixed[v.NullID()]:
			b.WriteString("#" + strconv.Itoa(s.color[v.NullID()]))
		case v.Kind() == KList:
			b.WriteString("[")
			for _, e := range v.Elems() {
				spell(e)
			}
			b.WriteString("]")
		default:
			b.WriteString(v.Key())
		}
		b.WriteString(",")
	}
	b.WriteString("(")
	for _, v := range t {
		spell(v)
	}
	b.WriteString(")")
	return b.String()
}

// refine recolours both sides until the number of colours stops growing.
func refine(sides [2]*nullSide) {
	count := func() int {
		seen := make(map[int]bool)
		for _, s := range sides {
			for _, c := range s.color {
				seen[c] = true
			}
		}
		return len(seen)
	}
	for n := count(); ; {
		palette := make(map[string]int)
		next := [2]map[uint64]int{{}, {}}
		for i, s := range sides {
			for _, null := range s.nulls {
				occ := make([]string, 0, len(s.in[null]))
				for _, f := range s.in[null] {
					occ = append(occ, s.preds[f]+s.shape(s.tuples[f], null))
				}
				sort.Strings(occ)
				sig := strconv.Itoa(s.color[null]) + "|" + strings.Join(occ, ";")
				c, ok := palette[sig]
				if !ok {
					c = len(palette)
					palette[sig] = c
				}
				next[i][null] = c
			}
		}
		sides[0].color, sides[1].color = next[0], next[1]
		m := count()
		if m <= n {
			return
		}
		n = m
	}
}

// individualize refines, then either reads the renaming off colours every
// null holds alone, or pins the first null of the smallest shared colour to
// each candidate in turn. depth tells pinned colours apart.
func individualize(sides [2]*nullSide, have, want map[string][]Tuple, depth int) map[uint64]uint64 {
	refine(sides)
	classes := [2]map[int][]uint64{{}, {}}
	for i, s := range sides {
		for _, n := range s.nulls {
			classes[i][s.color[n]] = append(classes[i][s.color[n]], n)
		}
	}
	pick := -1
	for c, ns := range classes[0] {
		if len(classes[1][c]) != len(ns) {
			return nil
		}
		if len(ns) > 1 && (pick < 0 || len(ns) < len(classes[0][pick]) || (len(ns) == len(classes[0][pick]) && c < pick)) {
			pick = c
		}
	}
	if pick < 0 {
		ren := make(map[uint64]uint64, len(sides[0].nulls))
		for c, ns := range classes[0] {
			ren[ns[0]] = classes[1][c][0]
		}
		if carries(have, ren, want) {
			return ren
		}
		return nil
	}
	a := classes[0][pick][0]
	for _, b := range classes[1][pick] {
		saved := [2]map[uint64]int{maps.Clone(sides[0].color), maps.Clone(sides[1].color)}
		// A colour no refinement hands out: refinement numbers from 0.
		sides[0].color[a], sides[1].color[b] = -1-depth, -1-depth
		if ren := individualize(sides, have, want, depth+1); ren != nil {
			return ren
		}
		sides[0].color, sides[1].color = saved[0], saved[1]
	}
	return nil
}

// carries reports whether renaming have's facts lands each one on a
// distinct fact of want; with equal counts everywhere, that makes them equal.
func carries(have map[string][]Tuple, ren map[uint64]uint64, want map[string][]Tuple) bool {
	left := make(map[string]bool)
	for pred, fs := range want {
		for _, f := range fs {
			left[pred+"/"+f.Key()] = true
		}
	}
	for pred, fs := range have {
		for _, f := range fs {
			t := make(Tuple, len(f))
			for i, v := range f {
				t[i] = renamed(v, ren)
			}
			k := pred + "/" + t.Key()
			if !left[k] {
				return false
			}
			delete(left, k)
		}
	}
	return true
}

// checkProvenance holds every recorded derivation of res to being one: the
// body facts are facts of the model, the rule applied to them yields the
// fact, and following body facts ends in extensional facts without a cycle.
// An aggregate's head is held only to its rule and its body facts' presence.
func checkProvenance(t testing.TB, tag string, p *Program, res *Result) {
	t.Helper()
	db := res.db
	const (
		open = 1
		done = 2
	)
	state := make(map[uint64]int)
	var visit func(f uint64) string
	visit = func(f uint64) string {
		switch state[f] {
		case open:
			return "a derivation cycle"
		case done:
			return ""
		}
		state[f] = open
		pid, pos := uint32(f>>32), uint32(f)
		if int(pid) >= len(res.preds) || db.rels[res.preds[pid]] == nil || int(pos) >= db.rels[res.preds[pid]].nrows() {
			return fmt.Sprintf("body fact %d:%d is not in the model", pid, pos)
		}
		pred := res.preds[pid]
		rel := db.rels[pred]
		rule, body := rel.provOf(pos)
		if rule >= 0 {
			fact := db.Rows(pred).Row(int(pos)).Tuple()
			if why := derives(p, rule, pred, fact, body, res); why != "" {
				return fmt.Sprintf("%s%s by rule %d: %s", pred, fact, rule, why)
			}
			for _, b := range body {
				if why := visit(b); why != "" {
					return why
				}
			}
		}
		state[f] = done
		return ""
	}
	for pid, pred := range res.preds {
		rel := db.rels[pred]
		if rel == nil {
			continue
		}
		for pos := 0; pos < rel.nrows(); pos++ {
			if why := visit(fid(uint32(pid), uint32(pos))); why != "" {
				t.Fatalf("%s: provenance of %s row %d: %s", tag, pred, pos, why)
			}
		}
	}
}

// derives says why rule ri, evaluated over its recorded body facts alone,
// does not yield pred(fact) with those facts in order, or returns "". A
// negated atom is asked of the final model, and an aggregate rule only to
// match its body facts.
func derives(p *Program, ri int, pred string, fact Tuple, body []uint64, res *Result) string {
	r := &p.Rules[ri]
	order, err := refSchedule(r)
	if err != nil {
		return err.Error()
	}
	m := &refModel{rels: make(map[string][]refFact), has: make(map[string]map[string]bool)}
	want := make([]string, len(body))
	for i, b := range body {
		bp := res.preds[uint32(b>>32)]
		f := refFactOf(refCanonTuple(res.db.Rows(bp).Row(int(uint32(b))).Tuple()))
		m.rels[bp] = append(m.rels[bp], f)
		want[i] = bp + f.t.Key()
	}
	hasEGD := false
	for i := range p.Rules {
		hasEGD = hasEGD || p.Rules[i].IsEGD
	}
	for _, l := range r.Body {
		if l.Kind == LNegAtom && m.has[l.Atom.Pred] == nil {
			m.has[l.Atom.Pred] = make(map[string]bool)
			for _, f := range res.Facts(l.Atom.Pred) {
				m.has[l.Atom.Pred][refCanonTuple(f).Key()] = true
			}
		}
	}
	var atoms []string // the positive atoms' predicates, as the schedule meets them
	for _, li := range order {
		if r.Body[li].Kind == LAtom {
			atoms = append(atoms, r.Body[li].Atom.Pred)
		}
	}
	why := "the body does not hold on its recorded facts"
	env := refEnv{}
	err = refBody(m, r, order, env, func(used []refFact) error {
		if len(used) != len(want) {
			return nil
		}
		for i := range used {
			if want[i] != atoms[i]+used[i].t.Key() {
				return nil // the same facts met in another order
			}
		}
		why = "no head of the rule is the fact"
		for _, h := range r.Heads {
			if h.Pred != pred || len(h.Args) != len(fact) {
				continue
			}
			invented := make(map[string]Val)
			ok := true
			for j, a := range h.Args {
				v := refCanon(fact[j])
				if a.Kind == TConst {
					ok = ok && refCanon(a.Val).Key() == v.Key()
				} else if b, bound := env[a.Name]; bound {
					ok = ok && b.k == v.Key()
				} else {
					// An invented value: a null, unless an EGD equated it
					// with something else since.
					prev, seen := invented[a.Name]
					ok = ok && (v.Kind() == KNull || hasEGD) && (!seen || prev.Key() == v.Key())
					invented[a.Name] = v
				}
			}
			if ok || refAgg(r) != nil {
				why = ""
			}
		}
		return nil
	})
	if err != nil {
		return err.Error()
	}
	return why
}

// updateDigests rewrites testdata/engine.digests from the run: go test
// ./internal/datalog/ -update-digests, at a commit whose engine choices
// are the ones to keep.
var updateDigests = flag.Bool("update-digests", false, "record the engine digests of this run in testdata/engine.digests")

const digestFile = "testdata/engine.digests"

var digests struct {
	sync.Mutex
	m map[string]string
}

// checkDigest compares a case's digest with the recorded one.
func checkDigest(t testing.TB, key, got string) {
	t.Helper()
	digests.Lock()
	defer digests.Unlock()
	if digests.m == nil {
		digests.m = make(map[string]string)
		src, err := os.ReadFile(filepath.FromSlash(digestFile))
		if err != nil && !*updateDigests {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
			if d, k, ok := strings.Cut(line, " "); ok {
				digests.m[k] = d
			}
		}
	}
	if *updateDigests {
		digests.m[key] = got
		lines := make([]string, 0, len(digests.m))
		for k, d := range digests.m {
			lines = append(lines, d+" "+k)
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i][17:] < lines[j][17:] })
		if err := os.WriteFile(filepath.FromSlash(digestFile), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, ok := digests.m[key]; !ok {
		t.Fatalf("%s: no digest recorded in %s", key, digestFile)
	} else if want != got {
		t.Fatalf("%s: the engine's own choices changed: digest %s, recorded %s", key, got, want)
	}
}

// engineDigest hashes what a run chose where the semantics leave a choice:
// every predicate's facts in insertion order with their null ids and, when
// full, each fact's first-derivation rule and explanation, the violations
// in order, and a refusal's text.
func engineDigest(res *Result, err error, full bool) string {
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	for _, pred := range res.DB().Predicates() {
		rows := res.DB().Rows(pred)
		for i := 0; i < rows.Len(); i++ {
			f := rows.Row(i).Tuple()
			fmt.Fprintf(h, "%s%s\n", pred, f)
			if full {
				rule, _ := res.ProvenanceRule(pred, f...)
				ex, err := res.Explain(pred, f...)
				fmt.Fprintf(h, "rule %d %v\n%s", rule, err, ex)
			}
		}
	}
	if full {
		for _, v := range res.Violations {
			fmt.Fprintln(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
