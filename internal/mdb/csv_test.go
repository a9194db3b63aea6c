package mdb

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
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

// checkParseCSV requires ParseCSV to read in as ReadCSV does — the same
// error text, or the same rows and the same null allocator — from the bytes
// it is handed, in place: they are left as they were, and every cell of a
// record without a quote lies inside them.
func checkParseCSV(t testing.TB, in string, attrs []Attribute) {
	b := []byte(in)
	got, gerr := ParseCSV(b, "x", attrs)
	want, werr := ReadCSV(strings.NewReader(in), "x", attrs)
	if errText(gerr) != errText(werr) {
		t.Fatalf("ParseCSV(%q): error %v, ReadCSV %v", in, gerr, werr)
	}
	if string(b) != in {
		t.Fatalf("ParseCSV(%q) changed its input to %q", in, b)
	}
	if werr != nil {
		return
	}
	if got.Nulls != want.Nulls || len(got.Rows) != len(want.Rows) {
		t.Fatalf("ParseCSV(%q): %d rows, %d nulls; ReadCSV %d rows, %d nulls",
			in, len(got.Rows), got.Nulls.Count(), len(want.Rows), want.Nulls.Count())
	}
	quoted := strings.IndexByte(in, '"') >= 0
	for i, g := range got.Rows {
		if w := want.Rows[i]; g.ID != w.ID || g.Weight != w.Weight || !slices.Equal(g.Values, w.Values) {
			t.Fatalf("ParseCSV(%q) row %d: %+v, ReadCSV %+v", in, i, *g, *w)
		}
		for _, v := range g.Values {
			if !quoted && v.s != "" && !within(v.s, b) {
				t.Fatalf("ParseCSV(%q) row %d: cell %q is a copy, not a part of the input", in, i, v.s)
			}
		}
	}
}

// within reports whether s lies in b's bytes.
func within(s string, b []byte) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return lo <= p && p+uintptr(len(s)) <= lo+uintptr(len(b))
}

// checkParseCSVGroup requires ParseCSVGroup, for id 0, every row's and one
// past the last, to equal ReadCSV followed by the Select ExplainRisk makes:
// the rows whose quasi-identifier cells equal those of the row with that
// ID. Rows, IDs, weights and Nulls are the same, or the error text is.
func checkParseCSVGroup(t testing.TB, in string, attrs []Attribute) {
	full, ferr := ReadCSV(strings.NewReader(in), "x", attrs)
	n := 0
	if ferr == nil {
		n = len(full.Rows)
	}
	for id := 0; id <= n+1; id++ {
		got, gerr := ParseCSVGroup([]byte(in), "x", attrs, id)
		if errText(gerr) != errText(ferr) {
			t.Fatalf("ParseCSVGroup(%q, %d): error %v, ReadCSV %v", in, id, gerr, ferr)
		}
		if ferr != nil {
			continue
		}
		qi := full.QuasiIdentifiers()
		var key *Row
		if id >= 1 && id <= n {
			key = full.Rows[id-1]
		}
		want := full.Select(func(r *Row) bool {
			return key != nil && !slices.ContainsFunc(qi, func(i int) bool { return r.Values[i] != key.Values[i] })
		})
		if got.Nulls != want.Nulls || len(got.Rows) != len(want.Rows) {
			t.Fatalf("ParseCSVGroup(%q, %d): %d rows, %d nulls; ReadCSV and Select %d rows, %d nulls",
				in, id, len(got.Rows), got.Nulls.Count(), len(want.Rows), want.Nulls.Count())
		}
		for i, g := range got.Rows {
			if w := want.Rows[i]; g.ID != w.ID || g.Weight != w.Weight || !slices.Equal(g.Values, w.Values) {
				t.Fatalf("ParseCSVGroup(%q, %d) row %d: %+v, ReadCSV and Select %+v", in, id, i, *g, *w)
			}
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// CSVHeader is ParseCSVHeader over the whole of r, the form the header
// tests read a CSV in.
func CSVHeader(r io.Reader) ([]string, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseCSVHeader(b)
}

// checkHeaderAndRecords holds ParseCSVHeader to encoding/csv's first Read
// and ParseCSVRecords to its ReadAll: names cleaned of a byte-order mark and
// padding, records and error texts as encoding/csv returns them.
func checkHeaderAndRecords(t testing.TB, in string) {
	clean := func(rec []string) []string {
		names := slices.Clone(rec)
		for i := range names {
			if i == 0 {
				names[i] = strings.TrimPrefix(names[i], "\ufeff")
			}
			names[i] = strings.TrimSpace(names[i])
		}
		return names
	}
	wrec, werr := csv.NewReader(strings.NewReader(in)).Read()
	if werr != nil {
		werr = fmt.Errorf("mdb: reading CSV header: %w", werr)
	}
	names, err := ParseCSVHeader([]byte(in))
	if errText(err) != errText(werr) || werr == nil && !slices.Equal(names, clean(wrec)) {
		t.Fatalf("ParseCSVHeader(%q) = %q, %v; encoding/csv %q, %v", in, names, err, wrec, werr)
	}
	all, werr := csv.NewReader(strings.NewReader(in)).ReadAll()
	var wnames []string
	var wrecs [][]string
	if werr == nil && len(all) > 0 {
		wnames, wrecs = clean(all[0]), all[1:]
	}
	names, recs, err := ParseCSVRecords([]byte(in))
	if errText(err) != errText(werr) || !slices.Equal(names, wnames) || len(recs) != len(wrecs) {
		t.Fatalf("ParseCSVRecords(%q) = %q, %q, %v; encoding/csv %q, %v", in, names, recs, err, all, werr)
	}
	for i := range recs {
		if !slices.Equal(recs[i], wrecs[i]) {
			t.Fatalf("ParseCSVRecords(%q) record %d is %q, encoding/csv %q", in, i, recs[i], wrecs[i])
		}
	}
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
// or a field short: the scanner equals encoding/csv, ReadCSV equals the
// reference and ParseCSV equals ReadCSV, errors included.
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
		checkParseCSV(t, in, attrs)
		checkScanner(t, in, len(attrs))
		checkHeaderAndRecords(t, in)
	}
	if read < inputs/5 {
		t.Fatalf("only %d of %d inputs were read without error", read, inputs)
	}
	t.Logf("%d inputs (%d read) in %v", inputs, read, time.Since(start))
}

// FuzzReadCSV holds ReadCSV to the reference, ParseCSV to ReadCSV, the group
// read to ReadCSV followed by a Select, and the scanner, the header read and
// the records read to encoding/csv.
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
		"A,W\n*,1\n⊥1,2\n*,3\n",         // a literal null after a "*" minted its id
		"A,W\n⊥5,1\n⊥05,2\nx,3\n",       // ⊥05 is ⊥5
		"A,W,B\n*,1,b\n*,2,b\n⊥2,3,b\n", // "*" in the key row
		"A,W,B\nx,1,b\nx,2,c\nx,3,b\n",  // rows equal on one quasi-identifier only
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
		checkParseCSV(t, in, attrs)
		checkParseCSVGroup(t, in, attrs)
		checkScanner(t, in, len(attrs))
		checkHeaderAndRecords(t, in)
	})
}

// referenceWriteCSV is WriteCSV written over encoding/csv's Writer — the
// writer's specification.
func referenceWriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	rec := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		rec[i] = a.Name
	}
	if err := cw.Write(rec); err != nil {
		return err
	}
	for _, r := range d.Rows {
		for i, v := range r.Values {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvCellTokens are the pieces test cells are made of: every byte and rune
// encoding/csv's Writer treats specially, the two labelled-null spellings as
// constants, and invalid UTF-8.
var csvCellTokens = []string{
	"a", "", `""`, `\.`, `"`, ",", "\r", "\n", "\r\n", " ", "\t", "\u0085", "\u00a0",
	"\u2028", "\xff", "\xe2\x82", "⊥3", "⊥0", "*", "é",
}

// checkWriteCSV requires WriteCSV to write d as the reference does, and,
// where every name and cell can be read back as itself, ReadCSV of its
// output to give back d's values.
func checkWriteCSV(t testing.TB, d *Dataset) {
	var got, want bytes.Buffer
	if err := WriteCSV(&got, d); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteCSV(&want, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV wrote %q, encoding/csv %q", got.Bytes(), want.Bytes())
	}
	if !csvRoundTrips(d) {
		return
	}
	back, err := ReadCSV(&got, d.Name, d.Attrs)
	if err != nil {
		t.Fatalf("ReadCSV(%q): %v", want.Bytes(), err)
	}
	if len(back.Rows) != len(d.Rows) {
		t.Fatalf("ReadCSV(%q): %d rows, wrote %d", want.Bytes(), len(back.Rows), len(d.Rows))
	}
	for i, r := range d.Rows {
		if !slices.Equal(back.Rows[i].Values, r.Values) {
			t.Fatalf("ReadCSV(%q) row %d: %q, wrote %q", want.Bytes(), i, back.Rows[i].Values, r.Values)
		}
	}
}

// csvRoundTrips reports whether ReadCSV can read d back from WriteCSV's
// output: names ReadCSV's header cleaning and Validate leave as they are, no
// "\r\n" (read as "\n"), no constant spelled as a labelled null, and no record
// that is one empty field (written as an empty line, which readers skip).
func csvRoundTrips(d *Dataset) bool {
	k := len(d.Attrs)
	seen := map[string]bool{}
	for _, a := range d.Attrs {
		if a.Name == "" || seen[a.Name] || a.Name != strings.TrimSpace(a.Name) ||
			strings.HasPrefix(a.Name, "\ufeff") || strings.Contains(a.Name, "\r\n") {
			return false
		}
		seen[a.Name] = true
	}
	var nulls NullAllocator
	for _, r := range d.Rows {
		for _, v := range r.Values {
			if v.IsNull() {
				continue
			}
			s := v.Constant()
			if (k == 1 && s == "") || strings.Contains(s, "\r\n") || ParseValue(s, &nulls) != v {
				return false
			}
		}
	}
	return k > 0
}

// Random tables over csvCellTokens: WriteCSV equals encoding/csv, and reads
// back wherever the table can be.
func TestWriteCSVMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cell := func() string {
		var b strings.Builder
		for k := rng.Intn(3); k > 0; k-- {
			b.WriteString(csvCellTokens[rng.Intn(len(csvCellTokens))])
		}
		return b.String()
	}
	roundTrips := 0
	for n := 0; n < 20_000; n++ {
		k := rng.Intn(4)
		attrs := make([]Attribute, k)
		for j := range attrs {
			attrs[j] = Attribute{Name: fmt.Sprintf("A%d", j), Category: QuasiIdentifier}
			if rng.Intn(8) == 0 {
				attrs[j].Name = cell()
			}
		}
		d := NewDataset("w", attrs)
		for r := rng.Intn(4); r > 0; r-- {
			row := &Row{Values: make([]Value, k)}
			for j := range row.Values {
				if rng.Intn(5) == 0 {
					row.Values[j] = d.Nulls.Fresh()
				} else {
					row.Values[j] = Const(cell())
				}
			}
			d.Append(row)
		}
		checkWriteCSV(t, d)
		if csvRoundTrips(d) {
			roundTrips++
		}
	}
	if roundTrips < 2_000 {
		t.Fatalf("only %d of 20000 tables could be read back", roundTrips)
	}
}

// recordWrites keeps every slice its writer is handed, copied.
type recordWrites [][]byte

func (r *recordWrites) Write(p []byte) (int, error) {
	*r = append(*r, bytes.Clone(p))
	return len(p), nil
}

// A large table reaches the writer in chunks of whole records, and WriteCSV
// allocates its one buffer whatever the table's size.
func TestWriteCSVChunksAtRecords(t *testing.T) {
	d := NewDataset("big", igAttrs())
	for i := 0; i < 5000; i++ {
		d.Append(&Row{Values: []Value{Const(fmt.Sprint(i)), Const(strings.Repeat("a,", i%40)), d.Nulls.Fresh(), Const("1")}, Weight: 1})
	}
	var writes recordWrites
	if err := WriteCSV(&writes, d); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := referenceWriteCSV(&want, d); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(writes, nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("chunks do not join into encoding/csv's output")
	}
	if len(writes) < 3 {
		t.Fatalf("%d writes of a %d-byte table", len(writes), want.Len())
	}
	for i, w := range writes {
		if len(w) == 0 || w[len(w)-1] != '\n' || len(w) > 2*csvChunk {
			t.Fatalf("write %d of %d bytes does not end a record within two chunks", i, len(w))
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = WriteCSV(io.Discard, d) }); allocs != 1 {
		t.Fatalf("WriteCSV allocates %v times per table, want 1", allocs)
	}
}

func FuzzWriteCSV(f *testing.F) {
	f.Add("A\x1fB\x1fx\x1f\x00", uint8(2))
	f.Add(strings.Join(csvCellTokens, "\x1f"), uint8(3))
	for _, tok := range csvCellTokens {
		f.Add("A\x1f"+tok+"\x1f"+tok+"x\x1fx"+tok+"\x1f\x00", uint8(1))
		f.Add(tok+"\x1f"+tok, uint8(0))
	}
	// in is the table's cells, split at U+001F, filled into 1 + cols%4 columns
	// row by row after a header; a cell starting with NUL is a labelled null.
	f.Fuzz(func(t *testing.T, in string, cols uint8) {
		k := 1 + int(cols%4)
		cells := strings.Split(in, "\x1f")
		attrs := make([]Attribute, k)
		for j := range attrs {
			if j < len(cells) {
				attrs[j].Name = cells[j]
			}
			attrs[j].Category = QuasiIdentifier
		}
		d := NewDataset("fuzz", attrs)
		for rest := cells[min(k, len(cells)):]; len(rest) > 0; rest = rest[min(k, len(rest)):] {
			row := &Row{Values: make([]Value, k)}
			for j := range row.Values {
				switch {
				case j >= len(rest):
				case strings.HasPrefix(rest[j], "\x00"):
					row.Values[j] = Null(uint64(len(rest[j])))
				default:
					row.Values[j] = Const(rest[j])
				}
			}
			d.Append(row)
		}
		checkWriteCSV(t, d)
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
