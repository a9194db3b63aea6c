package mdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// referenceReadCSV is ReadCSV written over encoding/csv — one Read, one Row
// and one []Value per record — the reader's specification: the dialect, the
// errors and the nulls minted are the standard library's. It names a record
// by the line it starts on, as the reader reports it (FieldPos).
func referenceReadCSV(r io.Reader, name string, attrs []Attribute) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(attrs)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("mdb: reading CSV header: %w", err)
	}
	for i, h := range headerNames(header) {
		if h != attrs[i].Name {
			return nil, fmt.Errorf("mdb: CSV column %d is %q, schema expects %q", i, h, attrs[i].Name)
		}
	}
	d := NewDataset(name, attrs)
	w := d.WeightIndex()
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mdb: reading CSV: %w", err)
		}
		line, _ := cr.FieldPos(0)
		row := &Row{Values: make([]Value, len(attrs))}
		for i, field := range rec {
			row.Values[i] = ParseValue(field, &d.Nulls)
		}
		if w >= 0 {
			v := row.Values[w]
			if v.IsNull() {
				return nil, fmt.Errorf("mdb: CSV line %d: weight column is a labelled null", line)
			}
			wt, err := ParseWeight(v.Constant())
			if err != nil {
				return nil, fmt.Errorf("mdb: CSV line %d: %w", line, err)
			}
			row.Weight = wt
		}
		d.Append(row)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkReadCSV requires ReadCSV to equal the reference on in: the same error
// text, or the same rows and the same null allocator. It reports whether the
// input was read.
func checkReadCSV(t testing.TB, in string, attrs []Attribute, wrap bool) bool {
	var r io.Reader = strings.NewReader(in)
	if wrap {
		r = struct{ io.Reader }{r} // no Len: read without a size hint
	}
	got, gerr := ReadCSV(r, "x", attrs)
	want, werr := referenceReadCSV(strings.NewReader(in), "x", attrs)
	if errText(gerr) != errText(werr) {
		t.Fatalf("ReadCSV(%q): error %v, reference %v", in, gerr, werr)
	}
	if werr != nil {
		return false
	}
	if len(got.Rows) != len(want.Rows) || got.Nulls != want.Nulls {
		t.Fatalf("ReadCSV(%q): %d rows, %d nulls; reference %d rows, %d nulls",
			in, len(got.Rows), got.Nulls.Count(), len(want.Rows), want.Nulls.Count())
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if g.ID != w.ID || g.Weight != w.Weight || len(g.Values) != len(w.Values) {
			t.Fatalf("ReadCSV(%q) row %d: %+v, reference %+v", in, i, *g, *w)
		}
		for j := range g.Values {
			if g.Values[j] != w.Values[j] {
				t.Fatalf("ReadCSV(%q) row %d col %d: %#v, reference %#v", in, i, j, g.Values[j], w.Values[j])
			}
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkScanner holds csvScanner to encoding/csv record by record — fields,
// start lines and errors — up to the first error that ends a read.
func checkScanner(t testing.TB, in string, want int) {
	cr := csv.NewReader(strings.NewReader(in))
	cr.FieldsPerRecord = want
	sc := csvScanner{s: in}
	for {
		wrec, werr := cr.Read()
		grec, gline, gerr := sc.record(nil, want)
		if errText(gerr) != errText(werr) {
			t.Fatalf("scanning %q: error %v, encoding/csv %v", in, gerr, werr)
		}
		if werr == nil {
			wline, _ := cr.FieldPos(0)
			if !slices.Equal(grec, wrec) || gline != wline {
				t.Fatalf("scanning %q: %q on line %d, encoding/csv %q on line %d", in, grec, gline, wrec, wline)
			}
			continue
		}
		if pe, ok := werr.(*csv.ParseError); !ok || pe.Err != csv.ErrFieldCount {
			return
		}
	}
}

// Short inputs over the dialect's every token, under a schema with and
// without a weight column and a header spelled clean, with "\r\n", quoted,
// or a field short: the scanner equals encoding/csv and ReadCSV equals the
// reference, errors included.
func TestReadCSVMatchesReference(t *testing.T) {
	tokens := []string{"a", ",", `"`, `""`, "\n", "\r", "\r\n", " ", "⊥2", "*", "1"}
	headers := []string{"A,W\n", "A,W\r\n", `"A","W"` + "\n", "A\n"}
	rng := rand.New(rand.NewSource(28))
	start, read := time.Now(), 0
	const inputs = 200_000
	var b strings.Builder
	// A record is two cells of up to two tokens each and a line end, so the
	// tokens land inside records as often as between them.
	cell := func() {
		for k := rng.Intn(3); k > 0; k-- {
			b.WriteString(tokens[rng.Intn(len(tokens))])
		}
	}
	for n := 0; n < inputs; n++ {
		b.Reset()
		b.WriteString(headers[rng.Intn(len(headers))])
		for r := rng.Intn(4); r > 0; r-- {
			cell()
			b.WriteString(",")
			cell()
			b.WriteString([]string{"\n", "\r\n", "\n\n", ""}[rng.Intn(4)])
		}
		in := b.String()
		wcat := Weight
		if n%2 == 1 {
			wcat = QuasiIdentifier
		}
		attrs := []Attribute{{Name: "A", Category: QuasiIdentifier}, {Name: "W", Category: wcat}}
		if checkReadCSV(t, in, attrs, n%8 == 0) {
			read++
		}
		checkScanner(t, in, len(attrs))
	}
	if read < inputs/5 {
		t.Fatalf("only %d of %d inputs were read without error", read, inputs)
	}
	t.Logf("%d inputs (%d read) in %v", inputs, read, time.Since(start))
}

func FuzzReadCSV(f *testing.F) {
	for _, in := range []string{
		"\ufeffA,W\nx,1\n",                   // byte-order mark
		"A,W\n\n\nx,1\n\ny,2\n\n",            // blank lines
		"A,W\n\"x\ny\",1\n\"\"\"q\"\"\",2\n", // quoted line break, doubled quotes
		"A,W\r\n\"x\r\ny\",1\r\n\r\n",        // the same with "\r\n"
		"A,W\nx\"y,1\n",                      // bare quote
		"A,W\n\"x\"y,1\n",                    // text after a closing quote
		"A,W\n\"x,1\n",                       // unterminated quote
		"A,W\n\"x,1\n\r",                     // unterminated, a last "\r"
		"A,W\nx,1",                           // no final newline
		"A,W\nx,1\r",                         // trailing "\r"
		"A,W\nx,1\r\r\n",                     // a "\r" kept
		"A,W\nx,1,2\n",                       // too many fields
		"A,W\nx\n",                           // too few
		"A,W\n\nx,NaN\n",                     // NaN weight after a blank line
		"A,W\nx,0\n",
		"A,W\nx,⊥1\ny,*\n",
		"\"A\",\"W\"\n*,3\n⊥4,2\n*,1\n",
		"", "\n", "A,W", "A\n",
	} {
		f.Add(in, uint8(1))
	}
	f.Fuzz(func(t *testing.T, in string, weight uint8) {
		names, err := CSVHeader(strings.NewReader(in))
		if err != nil {
			names = []string{"A", "W"}
		}
		attrs := make([]Attribute, len(names))
		for i, name := range names {
			attrs[i] = Attribute{Name: name, Category: QuasiIdentifier}
			if i == int(weight) {
				attrs[i].Category = Weight
			}
		}
		checkReadCSV(t, in, attrs, weight%2 == 0)
		checkScanner(t, in, len(attrs))
	})
}

// A bad weight is named by the physical line its record starts on, past
// blank lines and quoted line breaks.
func TestReadCSVNamesLines(t *testing.T) {
	attrs := []Attribute{{Name: "a", Category: QuasiIdentifier}, {Name: "W", Category: Weight}}
	for _, c := range []struct{ in, want string }{
		{"a,W\n\n\nx,1\ny,abc\n", "mdb: CSV line 5: bad weight " + RedactString("abc") + ": invalid syntax"},
		{"a,W\n\"x\ny\",1\nz,NaN\n", "mdb: CSV line 4: bad weight " + RedactString("NaN") + ": a weight is a finite number > 0"},
		{"a,W\r\n\r\n\"x\r\n\r\ny\",⊥1\r\n", "mdb: CSV line 3: weight column is a labelled null"},
	} {
		if _, err := ReadCSV(strings.NewReader(c.in), "x", attrs); err == nil || err.Error() != c.want {
			t.Errorf("ReadCSV(%q) = %v, want %s", c.in, err, c.want)
		}
	}
}

// ReadCSV and Clone allocate per table, not per row, and no row's values can
// grow into its neighbour's.
func TestReadCSVAndCloneAllocatePerTable(t *testing.T) {
	table := func(rows int) string {
		var b strings.Builder
		b.WriteString("Id,Area,Sector,Weight\n")
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d,a%d,s%d,%d\n", i, i%7, i%3, 1+i%5)
		}
		return b.String()
	}
	var allocs [2][2]float64
	for i, rows := range []int{10, 1000} {
		in := table(rows)
		d, err := ReadCSV(strings.NewReader(in), "x", igAttrs())
		if err != nil {
			t.Fatal(err)
		}
		allocs[i][0] = testing.AllocsPerRun(20, func() { _, _ = ReadCSV(strings.NewReader(in), "x", igAttrs()) })
		allocs[i][1] = testing.AllocsPerRun(20, func() { _ = d.Clone() })
		for _, e := range []*Dataset{d, d.Clone()} {
			next := e.Rows[1].Values[0]
			for _, r := range e.Rows {
				if len(r.Values) != cap(r.Values) {
					t.Fatalf("row %d: %d values in a capacity of %d", r.ID, len(r.Values), cap(r.Values))
				}
			}
			_ = append(e.Rows[0].Values, Const("spill"))
			if e.Rows[1].Values[0] != next {
				t.Fatal("an append to one row wrote into the next")
			}
		}
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocations (ReadCSV, Clone) at 10 rows %v, at 1000 rows %v", allocs[0], allocs[1])
	}
}
