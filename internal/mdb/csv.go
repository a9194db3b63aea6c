package mdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
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
func ReadCSV(r io.Reader, name string, attrs []Attribute) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(attrs)
	cr.ReuseRecord = true // fields are copied into Values before the next Read
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
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mdb: reading CSV: %w", err)
		}
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

// WriteCSV writes the dataset as CSV with a header row. Labelled nulls are
// written in their ⊥i form, so a round trip through ReadCSV preserves them.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(d.Attrs))
	for i, a := range d.Attrs {
		header[i] = a.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("mdb: writing CSV header: %w", err)
	}
	rec := make([]string, len(d.Attrs))
	for _, r := range d.Rows {
		for i, v := range r.Values {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("mdb: writing CSV row %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
