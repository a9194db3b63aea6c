// Package programs ships the paper's algorithms as declarative programs in
// the engine's Vadalog-flavoured syntax, together with encoders from the
// microdata model to extensional facts and decoders for the derived facts.
//
// These are the specification-level twins of the native implementations in
// internal/risk, internal/cluster, internal/hierarchy and
// internal/categorize: agreement tests pin the two execution paths to the
// same semantics, mirroring the paper's split between declarative Vadalog
// programs and the Vadalog system's optimized execution.
//
// Two adaptations from the paper's listings are deliberate. First, the
// engine has no tuple packing/unpacking (* and VSet[..]), so the risk
// programs are generated per schema width with one variable per
// quasi-identifier — the framework stays schema independent because the
// program text is derived from the metadata dictionary, not hand-written per
// dataset. Second, Algorithm 6's combination generation guards recursion
// with `not In(A,Z)`, which is negation through recursion; the equivalent
// stratified formulation below threads an attribute order through the
// combinations instead.
package programs

import (
	"fmt"
	"strings"

	"vadasa/internal/categorize"
	"vadasa/internal/datalog"
	"vadasa/internal/hierarchy"
	"vadasa/internal/mdb"
)

// mustParse parses one of this package's embedded program templates. The
// templates are fixed text parameterized only by integers (schema width,
// thresholds), so a parse failure here is a bug in this package, never bad
// input — the regexp.MustCompile idiom. User-supplied program text goes
// through datalog.Parse and surfaces as an error instead.
func mustParse(src string) *datalog.Program {
	p, err := datalog.Parse(src)
	if err != nil {
		panic(fmt.Errorf("programs: embedded program: %w", err))
	}
	return p
}

// qiVars renders V1,..,Vq.
func qiVars(q int) string {
	vs := make([]string, q)
	for i := range vs {
		vs[i] = fmt.Sprintf("V%d", i+1)
	}
	return strings.Join(vs, ",")
}

// Categorization is Algorithm 1 verbatim: experience-based inheritance with
// recursive consolidation, the existential default of Rule 1, and the EGD of
// Rule 4. Extensional predicates: att(db, attr), expbase(attr, cat),
// sim(a, b). Conflicts surface as EGD violations; attributes with no similar
// experience keep a labelled null as their category — the human-in-the-loop
// queue.
func Categorization() *datalog.Program {
	return mustParse(`
		cat(M,A,C) :- att(M,A), expbase(A1,C), sim(A,A1).
		expbase(A,C) :- cat(_M,A,C).
		cat(M,A,C) :- att(M,A).
		C1 = C2 :- cat(M,A,C1), cat(M,A,C2).
	`)
}

// ReIdentification is Algorithm 3 for a schema with q quasi-identifiers:
// group tuples by their combination, sum the sampling weights with the
// monotonic msum (tuple id as contributor), and return risk 1/ΣW.
func ReIdentification(q int) *datalog.Program {
	v := qiVars(q)
	return mustParse(fmt.Sprintf(`
		tuplesum(%[1]s,S) :- tuple(I,%[1]s,W), S = msum(W,[I]).
		riskout(I,R) :- tuple(I,%[1]s,_W), tuplesum(%[1]s,S), R = 1 / S.
	`, v))
}

// KAnonymity is Algorithm 4: count occurrences per combination with mcount
// and emit risk 1 below the threshold k, 0 otherwise (the two rules encode
// the paper's case expression).
func KAnonymity(q, k int) *datalog.Program {
	v := qiVars(q)
	return mustParse(fmt.Sprintf(`
		tuplecnt(%[1]s,C) :- tuple(I,%[1]s,_W), C = mcount([I]).
		riskout(I,1) :- tuple(I,%[1]s,_W), tuplecnt(%[1]s,C), C < %[2]d.
		riskout(I,0) :- tuple(I,%[1]s,_W), tuplecnt(%[1]s,C), C >= %[2]d.
	`, v, k))
}

// IndividualRisk is Algorithm 5 with the paper's simple posterior
// assumption: risk F/ΣW from the sample frequency and the weight sum of the
// combination.
func IndividualRisk(q int) *datalog.Program {
	v := qiVars(q)
	return mustParse(fmt.Sprintf(`
		tuplecnt(%[1]s,F) :- tuple(I,%[1]s,_W), F = mcount([I]).
		tuplesum(%[1]s,S) :- tuple(I,%[1]s,W), S = msum(W,[I]).
		riskout(I,R) :- tuple(I,%[1]s,_W), tuplecnt(%[1]s,F), tuplesum(%[1]s,S), R = F / S.
	`, v))
}

// IndividualRiskPosterior refines IndividualRisk with the Benedetti–Franconi
// posterior in its closed form for sample-unique combinations — the case
// that matters for disclosure: for F = 1, E[1/F | f=1] = (p/(1−p))·ln(1/p)
// with p = 1/ΣW; combinations with F > 1 keep the ratio estimate. The log
// built-in is what makes the closed form expressible declaratively.
func IndividualRiskPosterior(q int) *datalog.Program {
	v := qiVars(q)
	return mustParse(fmt.Sprintf(`
		tuplecnt(%[1]s,F) :- tuple(I,%[1]s,_W), F = mcount([I]).
		tuplesum(%[1]s,S) :- tuple(I,%[1]s,W), S = msum(W,[I]).
		riskout(I,R) :- tuple(I,%[1]s,_W), tuplecnt(%[1]s,F), tuplesum(%[1]s,S),
			F == 1, S > 1, P = 1 / S, R = P / (1 - P) * log(1 / P).
		riskout(I,1) :- tuple(I,%[1]s,_W), tuplecnt(%[1]s,F), tuplesum(%[1]s,S),
			F == 1, S <= 1.
		riskout(I,R) :- tuple(I,%[1]s,_W), tuplecnt(%[1]s,F), tuplesum(%[1]s,S),
			F > 1, R = F / S.
	`, v))
}

// WeightEstimation is the declarative twin of risk.EstimateWeights: the
// sampling weight of a tuple is populationScale × the sample frequency of
// its quasi-identifier combination (the estimator Section 2.1 sketches).
func WeightEstimation(q int, populationScale float64) *datalog.Program {
	v := qiVars(q)
	return mustParse(fmt.Sprintf(`
		tuplecnt(%[1]s,C) :- tuple(I,%[1]s,_W), C = mcount([I]).
		weightout(I,W) :- tuple(I,%[1]s,_W0), tuplecnt(%[1]s,C), W = %[2]g * C.
	`, v, populationScale))
}

// Control is the company-control program of Section 4.4: direct majority
// ownership, or joint majority through already-controlled companies — the
// msum-guarded recursion with rel(X,X) assumed, as the paper notes.
func Control() *datalog.Program {
	return mustParse(`
		ctr(X,X) :- own(X,_Y,_W).
		ctr(X,X) :- own(_Y,X,_W).
		rel(X,Y) :- ctr(X,Z), own(Z,Y,W), msum(W,[Z]) > 0.5.
		ctr(X,Y) :- rel(X,Y).
	`)
}

// ClusterRisk is Rule 2 of Algorithm 9: every entity's risk becomes
// 1 − Π(1 − ρ) over its cluster, computed with the monotonic product mprod.
// Extensional predicates: entity(X), rel(X,Y) (control links), risk(X,R).
func ClusterRisk() *datalog.Program {
	return mustParse(`
		samecluster(X,X) :- entity(X).
		link(X,Y) :- rel(X,Y).
		link(X,Y) :- rel(Y,X).
		samecluster(X,Y) :- samecluster(X,Z), link(Z,Y).
		surv(X,S) :- samecluster(X,Y), risk(Y,R), S = mprod(1 - R,[Y]).
		riskclust(X,RC) :- surv(X,S), RC = 1 - S.
	`)
}

// Recoding is Algorithm 8's lookup: climb the type hierarchy one level for a
// value that needs recoding. Extensional predicates: needrecode(attr, value)
// plus the hierarchy facts typeof/subtypeof/isa/instof.
func Recoding() *datalog.Program {
	return mustParse(`
		recode(A,V,Z) :- needrecode(A,V), typeof(A,X), subtypeof(X,Y), isa(V,Z), instof(Z,Y).
	`)
}

// Combinations is the stratified reformulation of Algorithm 6's Rules 2–4:
// for every input tuple it generates one combination (a labelled null) per
// non-empty subset of the quasi-identifier attributes, with inc(A,Z)
// membership facts. Extensional predicates: tuplei(I), qiord(A, N) with N a
// numeric position used to extend combinations in increasing attribute
// order (replacing the paper's non-stratified `not In(A,Z1)` guard).
func Combinations() *datalog.Program {
	return mustParse(`
		comb(Z,I,N), inc(A,Z) :- tuplei(I), qiord(A,N).
		comb(Z,I,N), ext(Z,Z1), inc(A,Z) :- comb(Z1,I,N1), qiord(A,N), N > N1.
		inc(B,Z) :- ext(Z,Z1), inc(B,Z1).
	`)
}

// TupleFacts encodes a dataset as tuple(I, V1..Vq, W) facts over the
// dataset's quasi-identifiers, dropping direct identifiers as Algorithm 2
// does. Labelled nulls map to engine labelled nulls, so the engine's exact
// matching realizes the standard (Skolem) null semantics; the maybe-match
// refinement is an engine-side concern in Vada-SA and lives in the native
// path.
func TupleFacts(db *datalog.Database, d *mdb.Dataset) {
	qi := d.QuasiIdentifiers()
	l := db.Loader("tuple")
	for _, r := range d.Rows {
		tupleFact(l, r, qi)
	}
}

// tupleFact loads one row as a tuple fact over the attributes qi.
func tupleFact(l *datalog.Loader, r *mdb.Row, qi []int) {
	l.Num(float64(r.ID))
	for _, i := range qi {
		if v := r.Values[i]; v.IsNull() {
			l.Null(v.NullID())
		} else {
			l.Str(v.Constant())
		}
	}
	l.Num(r.Weight)
	l.EndRow()
}

// DecodeRisk reads riskout(I, R) facts into a per-row-ID risk map. When the
// engine derived several monotone refinements for the same tuple, the
// maximum — the final value of the monotonic aggregation — wins.
func DecodeRisk(res *datalog.Result) map[int]float64 {
	rows := res.DB().Rows("riskout")
	out := make(map[int]float64, rows.Len())
	for i := 0; i < rows.Len(); i++ {
		f := rows.Row(i)
		id := int(f.At(0).NumVal())
		r := f.At(1).NumVal()
		if cur, ok := out[id]; !ok || r > cur {
			out[id] = r
		}
	}
	return out
}

// CategorizationEDB loads the extensional component of Algorithm 1: the
// attributes of a microdata DB, the experience base, and the ∼ relation
// materialized by evaluating the similarity functions over all pairs of
// names (attributes and experience entries alike, so consolidation chains
// can fire).
func CategorizationEDB(db *datalog.Database, microDB string, attrs []string,
	exp []categorize.Entry, sims []categorize.Similarity) {
	for _, a := range attrs {
		db.Add("att", datalog.Str(microDB), datalog.Str(a))
	}
	names := append([]string(nil), attrs...)
	for _, e := range exp {
		db.Add("expbase", datalog.Str(e.Attr), datalog.Str(e.Category.String()))
		names = append(names, e.Attr)
	}
	for _, a := range names {
		for _, b := range names {
			for _, sim := range sims {
				if sim.Similar(a, b) {
					db.Add("sim", datalog.Str(a), datalog.Str(b))
					break
				}
			}
		}
	}
}

// DecodeCategories reads the derived cat(db, attr, category) facts:
// attributes whose category is still a labelled null go to unknown — the
// Rule 1 placeholders awaiting expert input. Attributes involved in EGD
// violations (conflicts) are excluded from the category map.
func DecodeCategories(res *datalog.Result, microDB string) (cats map[string]mdb.Category, unknown []string, err error) {
	// An attribute is conflicted when it has two distinct constant
	// categories (the EGD violation of Rule 4).
	perAttr := make(map[string][]datalog.Val)
	for _, f := range res.Facts("cat") {
		if f[0].Kind() != datalog.KStr || f[0].StrVal() != microDB {
			continue
		}
		attr := f[1].StrVal()
		perAttr[attr] = append(perAttr[attr], f[2])
	}
	cats = make(map[string]mdb.Category)
	for attr, vals := range perAttr {
		var consts []string
		nullOnly := true
		for _, v := range vals {
			if v.Kind() == datalog.KStr {
				nullOnly = false
				consts = append(consts, v.StrVal())
			}
		}
		switch {
		case nullOnly:
			unknown = append(unknown, attr)
		case len(consts) > 1:
			// Conflicted: leave uncategorized; the violation list on
			// the Result carries the details.
		default:
			c, perr := mdb.ParseCategory(consts[0])
			if perr != nil {
				return nil, nil, fmt.Errorf("programs: %w", perr)
			}
			cats[attr] = c
		}
	}
	return cats, unknown, nil
}

// HierarchyFacts loads a hierarchy knowledge base into the database.
func HierarchyFacts(db *datalog.Database, h *hierarchy.Hierarchy) {
	for _, f := range h.Facts() {
		args := make([]datalog.Val, len(f.Args))
		for i, a := range f.Args {
			args[i] = datalog.Str(a)
		}
		db.Add(f.Pred, args...)
	}
}
