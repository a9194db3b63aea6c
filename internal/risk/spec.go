package risk

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"vadasa/internal/mdb"
)

// Spec is the serialisable identity of a built-in measure: its kind and the
// parameters that influence its scores. Client parameters parse to it
// (ParseSpec), the shard layer puts it on the wire inside every task, and
// Measure re-instantiates the measure on the other side. Attribute
// restrictions (Attrs) and SUDA's UseMeanSize are not part of it.
type Spec struct {
	Kind      string    `json:"kind"`
	K         int       `json:"k,omitempty"`
	MSU       int       `json:"msu,omitempty"`
	Estimator Estimator `json:"estimator,omitempty"`
	Samples   int       `json:"samples,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
	Sensitive string    `json:"sensitive,omitempty"`
	T         float64   `json:"t,omitempty"`
}

// measures is the measure table: per kind, what a Spec builds and what Spec
// a live value has (false when it is not that row's measure). The daemon,
// the CLI, the framework's plug-in registry and the shard wire all read
// measures from here; DESIGN.md "Risk layer" prints it.
var measures = []struct {
	kind  string
	build func(Spec) (Assessor, error)
	spec  func(Assessor) (Spec, bool)
}{
	{"re-identification",
		func(Spec) (Assessor, error) { return ReIdentification{}, nil },
		func(a Assessor) (Spec, bool) { _, ok := a.(ReIdentification); return Spec{}, ok }},
	{"k-anonymity",
		func(sp Spec) (Assessor, error) { return KAnonymity{K: sp.K}, nil },
		func(a Assessor) (Spec, bool) { m, ok := a.(KAnonymity); return Spec{K: m.K}, ok }},
	{"individual-risk",
		func(sp Spec) (Assessor, error) {
			return IndividualRisk{Estimator: sp.Estimator, Samples: sp.Samples, Seed: sp.Seed}, nil
		},
		func(a Assessor) (Spec, bool) {
			m, ok := a.(IndividualRisk)
			return Spec{Estimator: m.Estimator, Samples: m.Samples, Seed: m.Seed}, ok
		}},
	{"suda",
		func(sp Spec) (Assessor, error) { return SUDA{Threshold: sp.MSU}, nil },
		func(a Assessor) (Spec, bool) { m, ok := a.(SUDA); return Spec{MSU: m.Threshold}, ok }},
	{"l-diversity",
		func(sp Spec) (Assessor, error) {
			return LDiversity{L: sp.K, Sensitive: sp.Sensitive}, needSensitive(sp)
		},
		func(a Assessor) (Spec, bool) {
			m, ok := a.(LDiversity)
			return Spec{K: m.L, Sensitive: m.Sensitive}, ok
		}},
	{"t-closeness",
		func(sp Spec) (Assessor, error) {
			return TCloseness{T: sp.T, Sensitive: sp.Sensitive}, needSensitive(sp)
		},
		func(a Assessor) (Spec, bool) {
			m, ok := a.(TCloseness)
			return Spec{T: m.T, Sensitive: m.Sensitive}, ok
		}},
}

func needSensitive(sp Spec) error {
	if sp.Sensitive == "" {
		return fmt.Errorf("risk: %s needs the sensitive parameter", sp.Kind)
	}
	return nil
}

// Kinds lists the measure table's kinds, in table order.
func Kinds() []string {
	out := make([]string, len(measures))
	for i, m := range measures {
		out[i] = m.kind
	}
	return out
}

// Measure instantiates the measure the spec describes.
func (sp Spec) Measure() (Assessor, error) {
	for _, m := range measures {
		if m.kind == sp.Kind {
			return m.build(sp)
		}
	}
	return nil, fmt.Errorf("risk: unknown measure %q (want one of %s)", sp.Kind, strings.Join(Kinds(), ", "))
}

// SpecOf is the inverse of Measure: the spec of a built-in measure, false
// for anything else (cluster-wrapped, distributed or custom assessors).
func SpecOf(a Assessor) (Spec, bool) {
	for _, m := range measures {
		if sp, ok := m.spec(a); ok {
			sp.Kind = m.kind
			return sp, true
		}
	}
	return Spec{}, false
}

// ScoreGroups scores one row per element of infos from its group aggregates
// alone — Rescore's remote half, run by shard workers, one goroutine per
// task — through the loop AssessContext and Rescore run; ids are the row IDs
// a scoring error names.
func (sp Spec) ScoreGroups(ctx context.Context, infos []mdb.GroupInfo, ids []int) ([]float64, error) {
	a, err := sp.Measure()
	if err != nil {
		return nil, err
	}
	m, ok := a.(groupMeasure)
	if !ok {
		return nil, fmt.Errorf("risk: %s is not scored from group aggregates", sp.Kind)
	}
	out := make([]float64, len(infos))
	if err := scoreGroups(ctx, 1, m, infos, func(pos int) int { return ids[pos] }, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Param is one client-facing measure parameter: its key in a query string, a
// flag set or journaled stream metadata, what an absent key stands for, help.
type Param struct {
	Key, Default, Usage string
	set                 func(sp *Spec, v string) error
}

// Params is the parameter half of the measure table: ParseSpec reads exactly
// these keys, the CLI declares its flags from them and the daemon journals
// them with a stream.
var Params = []Param{
	{"measure", "k-anonymity", "risk measure: " + strings.Join(Kinds(), ", "),
		func(sp *Spec, v string) error { sp.Kind = v; return nil }},
	{"k", "2", "k-anonymity threshold / l-diversity L",
		func(sp *Spec, v string) (err error) { sp.K, err = strconv.Atoi(v); return }},
	{"msu", "3", "SUDA minimal-sample-unique size threshold",
		func(sp *Spec, v string) (err error) { sp.MSU, err = strconv.Atoi(v); return }},
	{"estimator", "posterior", "individual-risk estimator: ratio, posterior, monte-carlo",
		func(sp *Spec, v string) error {
			e, ok := map[string]Estimator{"ratio": Ratio, "posterior": PosteriorSeries, "monte-carlo": MonteCarlo}[v]
			if sp.Estimator = e; !ok {
				return strconv.ErrSyntax
			}
			return nil
		}},
	{"sensitive", "", "sensitive attribute for l-diversity / t-closeness",
		func(sp *Spec, v string) error { sp.Sensitive = v; return nil }},
	{"t", "0.3", "t-closeness distribution-distance bound",
		func(sp *Spec, v string) (err error) { sp.T, err = ParseFinite(v); return }},
}

// ParseFinite parses a number a client sent. "NaN" and "Inf" parse as floats
// and are no numbers: a NaN compares false with everything, so it would pass
// every range check written as a refusal and never exceed a threshold.
func ParseFinite(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = strconv.ErrRange
	}
	return f, err
}

// ParseSpec reads the parameters through get (a url.Values.Get, a flag
// lookup), "" standing for the default. Every one must be well-formed whether
// or not the kind reads it; whether the kind exists and has what it needs is
// Measure's to say.
func ParseSpec(get func(key string) string) (Spec, error) {
	var sp Spec
	for _, p := range Params {
		v := get(p.Key)
		if v == "" {
			v = p.Default
		}
		if err := p.set(&sp, v); err != nil {
			return Spec{}, fmt.Errorf("bad %s parameter %q", p.Key, v)
		}
	}
	return sp, nil
}
