package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"vadasa/internal/datalog"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/synth"
)

// scale shrinks every generated input and schedule; 1 is the benchmark
// proper, smokeScale is what the tests run.
type scale struct {
	rowDiv int // dataset rows are divided by this
	smoke  bool
}

var (
	fullScale  = scale{rowDiv: 1}
	smokeScale = scale{rowDiv: 20, smoke: true}
)

// table is one generated microdata DB in the forms the workloads need it.
type table struct {
	name  string
	data  *mdb.Dataset
	csv   []byte
	sum   [sha256.Size]byte // of csv: the table's identity across seeds and set-ups
	query string            // id=…&qi=…&weight=… : the schema, spelled out so the daemon infers nothing
}

func (t *table) rows() int { return len(t.data.Rows) }

// genTable generates one R<t>A<q><dist> dataset. The benchmark seed selects
// the synth seed, so different seeds give different tables of the same family.
func genTable(name string, tuples, qis int, dist synth.Dist, seed int64, sc scale) (*table, error) {
	gen := synth.Generate(synth.Config{Tuples: max(tuples/sc.rowDiv, 200), QIs: qis, Dist: dist, Seed: seed})
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, gen); err != nil {
		return nil, err
	}
	// The in-process copy is parsed back from the CSV the daemon will get,
	// under the schema the query spells, so row IDs and cells are the
	// daemon's view exactly and reference outputs can be compared bytewise.
	attrs := make([]mdb.Attribute, len(gen.Attrs))
	for i, a := range gen.Attrs {
		attrs[i] = mdb.Attribute{Name: a.Name, Category: a.Category}
	}
	d, err := mdb.ReadCSV(bytes.NewReader(buf.Bytes()), "request", attrs)
	if err != nil {
		return nil, err
	}
	return &table{name: name, data: d, csv: buf.Bytes(), sum: sha256.Sum256(buf.Bytes()), query: schemaQuery(attrs)}, nil
}

// schemaQuery spells a schema as the daemon's id/qi/weight/plain overrides.
func schemaQuery(attrs []mdb.Attribute) string {
	by := map[mdb.Category][]string{}
	for _, a := range attrs {
		by[a.Category] = append(by[a.Category], a.Name)
	}
	var parts []string
	for _, kv := range []struct {
		key string
		cat mdb.Category
	}{{"id", mdb.Identifier}, {"qi", mdb.QuasiIdentifier}, {"weight", mdb.Weight}, {"plain", mdb.NonIdentifying}} {
		if names := by[kv.cat]; len(names) > 0 {
			parts = append(parts, kv.key+"="+strings.Join(names, ","))
		}
	}
	return strings.Join(parts, "&")
}

// Derived synth seeds: one stream of the benchmark seed per table, spaced so
// neighbouring benchmark seeds never share a table.
func synthSeed(seed int64, slot int) int64 { return seed*64 + int64(slot) + 1 }

// nativeTables are the inputs of anonymize_native and jobs_durable: R25A4W/U/V
// plus R5A6U for SUDA (whose MSU search is the one measure that wants more
// attributes and fewer rows).
func nativeTables(seed int64, sc scale) ([]*table, error) {
	specs := []struct {
		name   string
		tuples int
		qis    int
		dist   synth.Dist
	}{
		{"R25A4W", 25000, 4, synth.DistW},
		{"R25A4U", 25000, 4, synth.DistU},
		{"R25A4V", 25000, 4, synth.DistV},
		{"R5A6U", 5000, 6, synth.DistU},
	}
	out := make([]*table, len(specs))
	for i, s := range specs {
		t, err := genTable(s.name, s.tuples, s.qis, s.dist, synthSeed(seed, i), sc)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// measureSpec is one risk measure as the HTTP API and the library spell it.
type measureSpec struct {
	name      string  // ?measure=
	params    string  // extra query parameters
	threshold float64 // T for /anonymize and streams
}

var (
	kAnon   = measureSpec{name: "k-anonymity", params: "&k=3", threshold: 0.5}
	reIdent = measureSpec{name: "re-identification", threshold: 0.05}
	indiv   = measureSpec{name: "individual-risk", threshold: 0.05}
	suda    = measureSpec{name: "suda", threshold: 0.5}
)

// cycleMeasures are the measures of the /anonymize matrix.
var cycleMeasures = []measureSpec{kAnon, reIdent, indiv}

func (m measureSpec) query() string { return "measure=" + m.name + m.params }

func (m measureSpec) anonymizeQuery() string {
	return m.query() + "&threshold=" + strconv.FormatFloat(m.threshold, 'g', -1, 64)
}

// declProgram returns the library program mirroring the measure for a
// 4-quasi-identifier schema, as /reason source text.
func declProgram(m measureSpec) *datalog.Program {
	switch m.name {
	case kAnon.name:
		return programs.KAnonymity(4, 3)
	case reIdent.name:
		return programs.ReIdentification(4)
	default:
		return programs.IndividualRisk(4)
	}
}

// reasonBody renders a /reason request: the program source, the table as
// tuple(I, V1..Vq, W) facts in the encoding programs.TupleFacts uses, and the
// riskout query. Written by hand rather than through encoding/json: set-up
// time is a reported metric and 50k rows of [][]any are slow to marshal.
func reasonBody(prog *datalog.Program, t *table) []byte {
	var b bytes.Buffer
	b.WriteString(`{"program":`)
	b.WriteString(strconv.Quote(prog.String()))
	b.WriteString(`,"query":["riskout"],"facts":{"tuple":[`)
	qi := t.data.QuasiIdentifiers()
	for i, r := range t.data.Rows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d", r.ID)
		for _, j := range qi {
			b.WriteByte(',')
			b.WriteString(strconv.Quote(r.Values[j].Constant()))
		}
		b.WriteByte(',')
		b.WriteString(strconv.FormatFloat(r.Weight, 'g', -1, 64))
		b.WriteByte(']')
	}
	b.WriteString(`]}}`)
	return b.Bytes()
}

// batchCSV renders rows [lo,hi) of a table as a header-carrying CSV batch for
// /stream/{id}/append.
func batchCSV(t *table, lo, hi int) []byte {
	sub := &mdb.Dataset{Name: t.name, Attrs: t.data.Attrs, Rows: t.data.Rows[lo:hi]}
	var buf bytes.Buffer
	_ = mdb.WriteCSV(&buf, sub) // bytes.Buffer writes cannot fail
	return buf.Bytes()
}
