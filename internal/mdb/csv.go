package mdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// CSVHeader reads the first record of a CSV as attribute names — the one
// reading of a header every intake path shares: fields as encoding/csv parses
// them (so a quoted name may hold a comma), with a leading UTF-8 byte-order
// mark and the white space around each name dropped.
func CSVHeader(r io.Reader) ([]string, error) {
	rec, err := csv.NewReader(r).Read()
	if err != nil {
		return nil, fmt.Errorf("mdb: reading CSV header: %w", err)
	}
	return headerNames(rec), nil
}

// headerNames cleans a header record in place.
func headerNames(rec []string) []string {
	for i, name := range rec {
		if i == 0 {
			name = strings.TrimPrefix(name, "\ufeff")
		}
		rec[i] = strings.TrimSpace(name)
	}
	return rec
}

// ReadCSV reads a microdata DB from CSV. The first record must be a header
// naming the schema's attributes, in order, as CSVHeader reads it. If the
// schema contains a Weight attribute, its column is read by ParseWeight and
// mirrored into Row.Weight. Labelled nulls are recognized in the ⊥i and *
// forms.
//
// The input is read whole and scanned once in encoding/csv's dialect —
// comma-separated, no comment character, strict quotes, no trimming, empty
// lines skipped, "\r\n" read as "\n" — and a malformed record fails with the
// *csv.ParseError encoding/csv would return for it. Errors name physical
// lines: a record's own line is the one it starts on.
//
// Retention: the rows share one allocation, their values another, and an
// unquoted cell is a substring of the input, so a cell kept after its
// dataset is dropped keeps the whole input alive. Copy what must outlive
// the dataset.
func ReadCSV(r io.Reader, name string, attrs []Attribute) (*Dataset, error) {
	var in strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		in.Grow(l.Len())
	}
	if _, err := io.Copy(&in, r); err != nil {
		return nil, fmt.Errorf("mdb: reading CSV: %w", err)
	}
	return parseCSV(in.String(), name, attrs)
}

// ParseCSV is ReadCSV over b itself, which it does not copy: the dataset's
// cells are substrings of b, so the caller gives b up, and b must not change
// while the dataset or any cell taken from it is in use. The daemon parses
// each request body this way.
func ParseCSV(b []byte, name string, attrs []Attribute) (*Dataset, error) {
	return parseCSV(inPlace(b), name, attrs)
}

// inPlace returns b as a string without copying it.
func inPlace(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// parseCSV is ReadCSV on the input as a string.
func parseCSV(s, name string, attrs []Attribute) (*Dataset, error) {
	sc, err := openCSV(s, attrs)
	if err != nil {
		return nil, err
	}
	d := NewDataset(name, attrs)
	k := len(attrs)
	// A record takes at least one line and k−1 commas plus a line end but for
	// the last, so both the lines left and the bytes left over k bound the
	// rows; the second keeps the values array linear in the input's size.
	rest := sc.s[sc.off:]
	n := strings.Count(rest, "\n")
	if rest != "" && !strings.HasSuffix(rest, "\n") {
		n++
	}
	n = min(n, (len(rest)+1)/k)
	rows, vals := make([]Row, n), make([]Value, n*k)
	d.Rows = make([]*Row, 0, n)
	err = sc.intake(d, func(i int) []Value {
		return vals[i*k : (i+1)*k : (i+1)*k]
	}, func(i int, v []Value, weight float64) {
		rows[i] = Row{ID: i + 1, Values: v, Weight: weight}
		d.Rows = append(d.Rows, &rows[i])
	})
	return validated(d, err)
}

// ParseCSVGroup is ParseCSV followed by a Select of the rows whose
// quasi-identifier cells equal, labelled nulls by id, those of the row with
// ID id — the tuple's exact group, as Framework.ExplainRisk chases it — with
// the same errors, the same Nulls and the same row IDs, but a Row and its
// values are made only for a row of the group. It reads b at most twice: up
// to record id to fix the group's key, skimming the lines that hold only
// constants, then every record, which it checks as ParseCSV does. An id past
// the last row keeps no rows. The rows are one allocation each, and their
// cells are substrings of b, as ParseCSV's are.
func ParseCSVGroup(b []byte, name string, attrs []Attribute, id int) (*Dataset, error) {
	sc, err := openCSV(inPlace(b), attrs)
	if err != nil {
		return nil, err
	}
	d := NewDataset(name, attrs)
	qi := d.QuasiIdentifiers()
	buf := make([]Value, len(attrs))
	var key []Value
	if id > 0 {
		first := *sc // the checking scan starts where this one does
		key = first.key(id, len(attrs))
	}
	err = sc.intake(d, func(int) []Value { return buf }, func(i int, v []Value, weight float64) {
		if key != nil && sameCells(v, key, qi) {
			d.Rows = append(d.Rows, &Row{ID: i + 1, Values: slices.Clone(v), Weight: weight})
		}
	})
	return validated(d, err)
}

// key returns the values of record id, counting from the scanner's place,
// with labelled nulls minted as a read from there mints them, or nil when
// the input ends or a record before it is malformed: the checking scan
// reports that. A line before it without a quote, a "*" or a "⊥" is one
// record of constants, which mints nothing, so it is only counted.
func (sc *csvScanner) key(id, k int) []Value {
	var nulls NullAllocator
	vals := make([]Value, k)
	for i := 1; ; i++ {
		if i < id && sc.skipConstants() {
			continue
		}
		rec, _, err := sc.record(sc.fields[:0], k)
		if err != nil {
			return nil
		}
		for j, field := range rec {
			vals[j] = ParseValue(field, &nulls)
		}
		if i == id {
			return vals
		}
	}
}

// skipConstants consumes the next line when it is not empty and holds none
// of the bytes a record needs to be other than constants — a quote, the
// "*" null, the first byte of "⊥" — and reports whether it did.
func (sc *csvScanner) skipConstants() bool {
	text := sc.s[sc.off:]
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		text = text[:i]
	}
	if strings.TrimSuffix(text, "\r") == "" || strings.IndexByte(text, '"') >= 0 ||
		strings.IndexByte(text, '*') >= 0 || strings.IndexByte(text, "⊥"[0]) >= 0 {
		return false
	}
	sc.readLine()
	return true
}

// sameCells reports whether a and b hold the same value at every index of
// idx.
func sameCells(a, b []Value, idx []int) bool {
	for _, i := range idx {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// openCSV reads the header of s, which must name attrs in order, and
// returns a scanner at the first record.
func openCSV(s string, attrs []Attribute) (*csvScanner, error) {
	sc := &csvScanner{s: s}
	k := len(attrs)
	header, _, err := sc.record(make([]string, 0, k), k)
	if err != nil {
		return nil, fmt.Errorf("mdb: reading CSV header: %w", err)
	}
	for i, h := range headerNames(header) {
		if h != attrs[i].Name {
			return nil, fmt.Errorf("mdb: CSV column %d is %q, schema expects %q", i, h, attrs[i].Name)
		}
	}
	sc.fields = header
	return sc, nil
}

// intake is the one loop that checks a CSV's records, ParseCSV's and
// ParseCSVGroup's: over the records after the header, in order, it parses
// record i into at(i), minting labelled nulls from d.Nulls, checks its
// weight under d's schema and hands both to keep.
func (sc *csvScanner) intake(d *Dataset, at func(i int) []Value, keep func(i int, vals []Value, weight float64)) error {
	k, w := len(d.Attrs), d.WeightIndex()
	for i := 0; ; i++ {
		rec, line, err := sc.record(sc.fields[:0], k)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("mdb: reading CSV: %w", err)
		}
		vals := at(i)
		for j, field := range rec {
			vals[j] = ParseValue(field, &d.Nulls)
		}
		var weight float64
		if w >= 0 {
			v := vals[w]
			if v.IsNull() {
				return fmt.Errorf("mdb: CSV line %d: weight column is a labelled null", line)
			}
			if weight, err = ParseWeight(v.Constant()); err != nil {
				return fmt.Errorf("mdb: CSV line %d: %w", line, err)
			}
		}
		keep(i, vals, weight)
	}
}

// validated returns d once its read ended without err and it passes
// Validate.
func validated(d *Dataset, err error) (*Dataset, error) {
	if err == nil {
		err = d.Validate()
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// csvScanner yields the records of an in-memory CSV exactly as encoding/csv's
// Reader does with its defaults and FieldsPerRecord set, errors included; the
// test oracle holds it to that. Fields are substrings of the input but for a quoted field holding a
// doubled quote or a line break, which is unescaped into buf and copied.
type csvScanner struct {
	s      string
	off    int      // first byte not yet read
	line   int      // physical lines read
	fields []string // a record's fields, reused from record to record

	field  string // quoted field read so far, while it is one piece
	buf    []byte // quoted field read so far, once it is several
	copied bool   // whether buf holds it
}

// readLine consumes one physical line and returns it as encoding/csv sees it:
// without its "\n" (nl reports one), and without one "\r" before that or
// before the end of input.
func (sc *csvScanner) readLine() (text string, nl bool) {
	text = sc.s[sc.off:]
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		text, nl = text[:i], true
	}
	sc.off += len(text)
	if nl {
		sc.off++
	}
	sc.line++
	return strings.TrimSuffix(text, "\r"), nl
}

// record reads the next record into fields[:0] and returns it with the line
// it starts on, or io.EOF after the last one. A record of other than want
// fields is an ErrFieldCount error.
func (sc *csvScanner) record(fields []string, want int) ([]string, int, error) {
	var text string
	var nl bool
	for text == "" { // empty lines are skipped
		if sc.off == len(sc.s) {
			return nil, 0, io.EOF
		}
		text, nl = sc.readLine()
	}
	start, line, col := sc.line, sc.line, 1
	fail := func(line, col int, err error) ([]string, int, error) {
		return nil, start, &csv.ParseError{StartLine: start, Line: line, Column: col, Err: err}
	}
	// A line without a quote is one record whose fields lie between its
	// commas; any other runs the state machine below, which only a break
	// ends.
	quoted := strings.IndexByte(text, '"') >= 0
	for !quoted {
		i := strings.IndexByte(text, ',')
		if i < 0 {
			fields = append(fields, text)
			break
		}
		fields = append(fields, text[:i])
		text = text[i+1:]
	}
	for quoted {
		if text == "" || text[0] != '"' {
			j := 0
			for j < len(text) && text[j] != ',' && text[j] != '"' {
				j++
			}
			if j < len(text) && text[j] == '"' {
				return fail(line, col+j, csv.ErrBareQuote)
			}
			fields = append(fields, text[:j])
			if j == len(text) {
				break
			}
			text, col = text[j+1:], col+j+1
			continue
		}
		text, col = text[1:], col+1
		sc.field, sc.copied = "", false
		for {
			i := strings.IndexByte(text, '"')
			if i < 0 {
				if text == "" && !nl {
					return fail(line, col, csv.ErrQuote) // input ends inside the quotes
				}
				// The field runs on over the line break, read as "\n".
				sc.add(text)
				col += len(text)
				if nl {
					sc.add("\n")
					col++
				}
				text, nl = "", false
				if sc.off < len(sc.s) {
					text, nl = sc.readLine()
				}
				if text != "" || nl {
					line, col = sc.line, 1
				}
				continue
			}
			sc.add(text[:i])
			text, col = text[i+1:], col+i+1
			if text != "" && text[0] == '"' { // a doubled quote
				sc.add(`"`)
				text, col = text[1:], col+1
				continue
			}
			if text != "" && text[0] != ',' {
				return fail(line, col-1, csv.ErrQuote)
			}
			fields = append(fields, sc.take())
			break
		}
		if text == "" {
			break
		}
		text, col = text[1:], col+1
	}
	if len(fields) != want {
		return fail(start, 1, csv.ErrFieldCount)
	}
	return fields, start, nil
}

// add appends p to the quoted field being read: the field stays a substring
// of the input until a second non-empty piece makes it a copy.
func (sc *csvScanner) add(p string) {
	switch {
	case p == "":
	case sc.copied:
		sc.buf = append(sc.buf, p...)
	case sc.field == "":
		sc.field = p
	default:
		sc.buf = append(append(sc.buf[:0], sc.field...), p...)
		sc.copied = true
	}
}

// take returns the quoted field read so far.
func (sc *csvScanner) take() string {
	if sc.copied {
		return string(sc.buf)
	}
	return sc.field
}

// csvChunk is how many bytes WriteCSV gathers before handing them to its
// writer.
const csvChunk = 32 << 10

// WriteCSV writes the dataset as CSV with a header row. Labelled nulls are
// written in their ⊥i form, so a round trip through ReadCSV preserves them.
//
// The bytes are those of encoding/csv's Writer with its defaults, which the
// test oracle holds it to. Records are appended to one buffer that goes to w
// whenever it holds csvChunk bytes, and at the end, so w sees whole records
// and never more than a chunk and a record at once.
func WriteCSV(w io.Writer, d *Dataset) error {
	buf := make([]byte, 0, 2*csvChunk)
	for i, a := range d.Attrs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendCSVField(buf, a.Name)
	}
	buf = append(buf, '\n')
	for _, r := range d.Rows {
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("mdb: writing CSV: %w", err)
			}
			buf = buf[:0]
		}
		for i, v := range r.Values {
			if i > 0 {
				buf = append(buf, ',')
			}
			if v.null != 0 {
				buf = strconv.AppendUint(append(buf, "⊥"...), v.null, 10)
			} else {
				buf = appendCSVField(buf, v.s)
			}
		}
		buf = append(buf, '\n')
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("mdb: writing CSV: %w", err)
	}
	return nil
}

// appendCSVField appends one field as encoding/csv writes it: quoted when it
// holds a comma, a quote, "\r" or "\n", starts with a white-space rune or is
// `\.`, and then with every quote doubled and line ends kept as they are.
func appendCSVField(dst []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// csvSpecial marks the bytes that make encoding/csv quote a field wherever
// they stand.
var csvSpecial = [256]bool{',': true, '"': true, '\r': true, '\n': true}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		if csvSpecial[s[i]] {
			return true
		}
	}
	if c := s[0]; c < utf8.RuneSelf {
		return c == ' ' || '\t' <= c && c <= '\r' // unicode.IsSpace below RuneSelf
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}
