package mdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

func igAttrs() []Attribute {
	return []Attribute{
		{Name: "Id", Category: Identifier},
		{Name: "Area", Category: QuasiIdentifier},
		{Name: "Sector", Category: QuasiIdentifier},
		{Name: "Weight", Category: Weight},
	}
}

func TestDatasetBasics(t *testing.T) {
	d := NewDataset("I&G", igAttrs())
	if d.AttrIndex("Sector") != 2 || d.AttrIndex("nope") != -1 {
		t.Fatal("AttrIndex misbehaves")
	}
	if got := d.QuasiIdentifiers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("QuasiIdentifiers = %v", got)
	}
	if d.WeightIndex() != 3 {
		t.Fatalf("WeightIndex = %d", d.WeightIndex())
	}
	d.Append(&Row{Values: []Value{Const("1"), Const("North"), Const("Textiles"), Const("60")}, Weight: 60})
	if d.Rows[0].ID != 1 {
		t.Fatalf("auto ID = %d", d.Rows[0].ID)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	dup := NewDataset("x", []Attribute{{Name: "A"}, {Name: "A"}})
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate attrs: err = %v", err)
	}
	unnamed := NewDataset("x", []Attribute{{Name: ""}})
	if err := unnamed.Validate(); err == nil || !strings.Contains(err.Error(), "unnamed") {
		t.Errorf("unnamed attr: err = %v", err)
	}
	twoW := NewDataset("x", []Attribute{{Name: "A", Category: Weight}, {Name: "B", Category: Weight}})
	if err := twoW.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Errorf("two weights: err = %v", err)
	}
	arity := NewDataset("x", []Attribute{{Name: "A"}})
	arity.Append(&Row{Values: []Value{Const("1"), Const("2")}})
	if err := arity.Validate(); err == nil || !strings.Contains(err.Error(), "values") {
		t.Errorf("arity: err = %v", err)
	}
	badW := NewDataset("x", []Attribute{{Name: "W", Category: Weight}})
	badW.Append(&Row{Values: []Value{Const("0")}, Weight: 0})
	if err := badW.Validate(); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Errorf("bad weight: err = %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := NewDataset("I&G", igAttrs())
	d.Append(&Row{Values: []Value{Const("1"), Const("North"), Const("Textiles"), Const("60")}, Weight: 60})
	c := d.Clone()
	c.Rows[0].Values[1] = c.Nulls.Fresh()
	c.Attrs[1].Category = NonIdentifying
	if d.Rows[0].Values[1] != Const("North") {
		t.Fatal("Clone shares row storage")
	}
	if d.Attrs[1].Category != QuasiIdentifier {
		t.Fatal("Clone shares attr storage")
	}
	// Null allocators must be independent after cloning.
	if v := d.Nulls.Fresh(); v.NullID() != 1 {
		t.Fatalf("original allocator disturbed: %v", v)
	}
}

func TestNullCount(t *testing.T) {
	d := NewDataset("I&G", igAttrs())
	d.Append(&Row{Values: []Value{Const("1"), Const("North"), Const("Textiles"), Const("60")}, Weight: 60})
	d.Append(&Row{Values: []Value{Const("2"), Const("South"), Const("Commerce"), Const("30")}, Weight: 30})
	if d.NullCount() != 0 {
		t.Fatalf("NullCount = %d, want 0", d.NullCount())
	}
	d.Rows[0].Values[1] = d.Nulls.Fresh()
	d.Rows[0].Values[2] = d.Nulls.Fresh()
	d.Rows[1].Values[0] = d.Nulls.Fresh() // identifier: not counted
	if d.NullCount() != 2 {
		t.Fatalf("NullCount = %d, want 2", d.NullCount())
	}
}

func TestDistinctValues(t *testing.T) {
	d := NewDataset("I&G", igAttrs())
	for _, area := range []string{"North", "South", "North", "Center"} {
		d.Append(&Row{Values: []Value{Const("i"), Const(area), Const("Commerce"), Const("1")}, Weight: 1})
	}
	d.Rows[3].Values[1] = d.Nulls.Fresh()
	got := d.DistinctValues(1)
	if len(got) != 2 || got[0] != "North" || got[1] != "South" {
		t.Fatalf("DistinctValues = %v", got)
	}
}

func TestCategoryStringAndParse(t *testing.T) {
	for _, c := range []Category{NonIdentifying, Identifier, QuasiIdentifier, Weight} {
		back, err := ParseCategory(c.String())
		if err != nil || back != c {
			t.Errorf("round trip of %v failed: %v %v", c, back, err)
		}
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Error("ParseCategory accepted bogus input")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset("I&G", igAttrs())
	d.Append(&Row{Values: []Value{Const("1"), Const("North"), Const("Textiles"), Const("60")}, Weight: 60})
	d.Append(&Row{Values: []Value{Const("2"), Const("South, east"), Const("Commerce"), Const("30.5")}, Weight: 30.5})
	d.Rows[0].Values[2] = d.Nulls.Fresh()

	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "I&G", igAttrs())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(back.Rows) != 2 {
		t.Fatalf("got %d rows", len(back.Rows))
	}
	if !back.Rows[0].Values[2].IsNull() {
		t.Error("null value lost in round trip")
	}
	if back.Rows[1].Values[1] != Const("South, east") {
		t.Errorf("comma-bearing value mangled: %v", back.Rows[1].Values[1])
	}
	if back.Rows[1].Weight != 30.5 {
		t.Errorf("weight = %g, want 30.5", back.Rows[1].Weight)
	}
	// The allocator must have observed the serialized null.
	if v := back.Nulls.Fresh(); v.NullID() != d.Rows[0].Values[2].NullID()+1 {
		t.Errorf("allocator did not observe serialized null: fresh = %v", v)
	}
}

func TestReadCSVErrors(t *testing.T) {
	attrs := igAttrs()
	if _, err := ReadCSV(strings.NewReader("Wrong,Area,Sector,Weight\n"), "x", attrs); err == nil {
		t.Error("header mismatch not detected")
	}
	if _, err := ReadCSV(strings.NewReader("Id,Area,Sector,Weight\n1,N,T,notanumber\n"), "x", attrs); err == nil {
		t.Error("bad weight not detected")
	}
	if _, err := ReadCSV(strings.NewReader("Id,Area,Sector,Weight\n1,N,T,⊥1\n"), "x", attrs); err == nil {
		t.Error("null weight not detected")
	}
	if _, err := ReadCSV(strings.NewReader("Id,Area\n"), "x", attrs); err == nil {
		t.Error("wrong column count not detected")
	}
}

// A sampling weight is a finite number > 0 at every intake, and the error
// names the cell by its digest only.
func TestWeightIsFinitePositive(t *testing.T) {
	attrs := igAttrs()
	for _, cell := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "0", "-0", "-3", "1e999", "notanumber"} {
		_, err := ReadCSV(strings.NewReader("Id,Area,Sector,Weight\n1,N,T,10\n2,N,T,"+cell+"\n"), "x", attrs)
		if err == nil {
			t.Errorf("weight %q accepted", cell)
			continue
		}
		// (A cell of one or two characters can recur in the digest's hex.)
		if msg := err.Error(); !strings.Contains(msg, "CSV line 3: bad weight "+RedactString(cell)) || len(cell) > 2 && strings.Contains(msg, cell) {
			t.Errorf("weight %q: %v", cell, err)
		}
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		d := NewDataset("x", []Attribute{{Name: "W", Category: Weight}})
		d.Append(&Row{Values: []Value{Const("w")}, Weight: w})
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "bad weight sha256:") {
			t.Errorf("Validate with weight %g: %v", w, err)
		}
	}
	// ParseWeight is strconv.ParseFloat under CheckWeight, value and error
	// text, on both sides of its path for short digit strings.
	for _, cell := range []string{"10", "0.5", "1e-300", "007", "0", "00", "999999999999999",
		"9007199254740993", "+1", "1e3", " 1", "１２", ""} {
		want, werr := strconv.ParseFloat(cell, 64)
		if werr != nil {
			werr = errors.Unwrap(werr)
		} else {
			werr = CheckWeight(want)
		}
		if werr != nil {
			want, werr = 0, fmt.Errorf("bad weight %s: %v", RedactString(cell), werr)
		}
		if got, err := ParseWeight(cell); got != want || errText(err) != errText(werr) {
			t.Errorf("ParseWeight(%q) = %g, %v; want %g, %v", cell, got, err, want, werr)
		}
	}
}

func TestDictionary(t *testing.T) {
	dd := NewDictionary()
	if err := dd.Register("I&G", igAttrs()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := dd.Register("I&G", igAttrs()); err == nil {
		t.Error("duplicate Register not rejected")
	}
	if err := dd.Register("", nil); err == nil {
		t.Error("empty name not rejected")
	}
	if got := dd.MicroDBs(); len(got) != 1 || got[0] != "I&G" {
		t.Fatalf("MicroDBs = %v", got)
	}
	c, err := dd.Category("I&G", "Area")
	if err != nil || c != QuasiIdentifier {
		t.Fatalf("Category = %v, %v", c, err)
	}
	if _, err := dd.Category("nope", "Area"); err == nil {
		t.Error("unknown DB not rejected")
	}
	if _, err := dd.Category("I&G", "nope"); err == nil {
		t.Error("unknown attribute not rejected")
	}
	if err := dd.SetCategory("I&G", "Area", NonIdentifying); err != nil {
		t.Fatalf("SetCategory: %v", err)
	}
	if c, _ := dd.Category("I&G", "Area"); c != NonIdentifying {
		t.Fatal("SetCategory did not stick")
	}
	if err := dd.SetCategory("I&G", "nope", Weight); err == nil {
		t.Error("SetCategory on unknown attribute not rejected")
	}

	d := NewDataset("I&G", igAttrs())
	if err := dd.Apply(d); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if d.Attrs[1].Category != NonIdentifying {
		t.Fatal("Apply did not copy the category")
	}
	other := NewDataset("other", igAttrs())
	if err := dd.Apply(other); err == nil {
		t.Error("Apply to unregistered DB not rejected")
	}
	renamed := NewDataset("I&G", []Attribute{{Name: "X"}, {Name: "Area"}, {Name: "Sector"}, {Name: "Weight"}})
	if err := dd.Apply(renamed); err == nil {
		t.Error("Apply with mismatched schema not rejected")
	}
}

func TestDictionaryFacts(t *testing.T) {
	dd := NewDictionary()
	if err := dd.Register("I&G", igAttrs()[:2]); err != nil {
		t.Fatal(err)
	}
	fs := dd.Facts()
	// microdb + 2*(att+cat) = 5 facts.
	if len(fs) != 5 {
		t.Fatalf("got %d facts: %v", len(fs), fs)
	}
	if fs[0].Pred != "microdb" || fs[0].Args[0] != "I&G" {
		t.Fatalf("first fact = %v", fs[0])
	}
}

// Property: any dataset of printable values round-trips through CSV
// unchanged, including labelled nulls and weights.
func TestCSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []string{"North", "a,b", `quo"ted`, "x\ny", " pad ", "", "⊥ish", "1.5"}
	for trial := 0; trial < 20; trial++ {
		attrs := []Attribute{
			{Name: "A", Category: QuasiIdentifier},
			{Name: "B", Category: QuasiIdentifier},
			{Name: "W", Category: Weight},
		}
		d := NewDataset("prop", attrs)
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			w := float64(1 + rng.Intn(500))
			var a, b Value
			if rng.Intn(5) == 0 {
				a = d.Nulls.Fresh()
			} else {
				a = Const(values[rng.Intn(len(values))])
			}
			if rng.Intn(5) == 0 {
				b = d.Nulls.Fresh()
			} else {
				b = Const(values[rng.Intn(len(values))])
			}
			d.Append(&Row{Values: []Value{a, b, Const(strconv.FormatFloat(w, 'g', -1, 64))}, Weight: w})
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			t.Fatalf("trial %d: WriteCSV: %v", trial, err)
		}
		back, err := ReadCSV(&buf, "prop", attrs)
		if err != nil {
			t.Fatalf("trial %d: ReadCSV: %v", trial, err)
		}
		if len(back.Rows) != len(d.Rows) {
			t.Fatalf("trial %d: %d rows back, want %d", trial, len(back.Rows), len(d.Rows))
		}
		for i := range d.Rows {
			if back.Rows[i].Weight != d.Rows[i].Weight {
				t.Fatalf("trial %d row %d: weight %g != %g", trial, i, back.Rows[i].Weight, d.Rows[i].Weight)
			}
			for j := range d.Rows[i].Values {
				if back.Rows[i].Values[j] != d.Rows[i].Values[j] {
					t.Fatalf("trial %d row %d col %d: %v != %v",
						trial, i, j, back.Rows[i].Values[j], d.Rows[i].Values[j])
				}
			}
		}
	}
}

// headerCase is one row of testdata/headers.json: a CSV whose header is
// spelled some way a spreadsheet or encoding/csv itself spells it, and the
// schema every intake path — this package, the CLI loader, the daemon's
// synchronous endpoints and stream creation, which read the same file — must
// make of it.
type headerCase struct {
	Name   string      `json:"name"`
	CSV    string      `json:"csv"`
	Schema [][2]string `json:"schema"` // name, category
}

func TestCSVHeaderTable(t *testing.T) {
	raw, err := os.ReadFile("testdata/headers.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []headerCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		names, err := CSVHeader(strings.NewReader(c.CSV))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		attrs := make([]Attribute, len(c.Schema))
		for i, s := range c.Schema {
			cat, err := ParseCategory(s[1])
			if err != nil {
				t.Fatal(err)
			}
			attrs[i] = Attribute{Name: s[0], Category: cat}
			if i >= len(names) || names[i] != s[0] {
				t.Fatalf("%s: header reads %q, want %q", c.Name, names, c.Schema)
			}
		}
		d, err := ReadCSV(strings.NewReader(c.CSV), c.Name, attrs)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if len(d.Rows) != 4 || d.Rows[3].Weight != 9 {
			t.Fatalf("%s: read %d rows", c.Name, len(d.Rows))
		}
		// What WriteCSV makes of the schema — quoting a name that holds a
		// comma — reads back.
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCSV(&buf, c.Name, attrs); err != nil {
			t.Fatalf("%s: re-reading own output: %v", c.Name, err)
		}
	}
}
