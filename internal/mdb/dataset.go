package mdb

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"unsafe"
)

// Category classifies a microdata attribute for disclosure purposes
// (Section 2.1 of the paper).
type Category int

const (
	// NonIdentifying attributes disclose nothing, alone or combined.
	NonIdentifying Category = iota
	// Identifier attributes (direct identifiers) disclose the respondent
	// on their own and are dropped before risk evaluation.
	Identifier
	// QuasiIdentifier attributes disclose the respondent in combination.
	QuasiIdentifier
	// Weight marks the sampling-weight attribute.
	Weight
)

var categoryNames = map[Category]string{
	NonIdentifying:  "Non-identifying",
	Identifier:      "Identifier",
	QuasiIdentifier: "Quasi-identifier",
	Weight:          "Sampling Weight",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// ParseCategory parses the textual form produced by String (case-sensitive).
func ParseCategory(s string) (Category, error) {
	for c, name := range categoryNames {
		if s == name {
			return c, nil
		}
	}
	return NonIdentifying, fmt.Errorf("mdb: unknown category %q", s)
}

// Attribute describes one column of a microdata DB.
type Attribute struct {
	Name        string
	Description string
	Category    Category
}

// Row is one microdata tuple. ID is the artificial identifier I of
// Algorithm 2; it is stable across anonymization steps, so it doubles as the
// monotonic-aggregation contributor. Weight is the sampling weight W.
type Row struct {
	ID     int
	Values []Value
	Weight float64
}

// Clone returns a deep copy of the row.
func (r *Row) Clone() *Row {
	c := *r
	c.Values = append([]Value(nil), r.Values...)
	return &c
}

// Dataset is a microdata DB: a named relation with categorized attributes.
// The weight, if any, lives both in the Values slice (as text) and in
// Row.Weight (as a float) so declarative and native paths see the same data.
type Dataset struct {
	Name  string
	Attrs []Attribute
	Rows  []*Row

	// Nulls mints the labelled nulls used by local suppression on this
	// dataset.
	Nulls NullAllocator
}

// NewDataset returns an empty dataset with the given schema.
func NewDataset(name string, attrs []Attribute) *Dataset {
	return &Dataset{Name: name, Attrs: append([]Attribute(nil), attrs...)}
}

// AttrIndex returns the index of the named attribute, or -1.
func (d *Dataset) AttrIndex(name string) int {
	for i, a := range d.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// QuasiIdentifiers returns the indexes of all quasi-identifier attributes,
// in schema order.
func (d *Dataset) QuasiIdentifiers() []int {
	var qi []int
	for i, a := range d.Attrs {
		if a.Category == QuasiIdentifier {
			qi = append(qi, i)
		}
	}
	return qi
}

// WeightIndex returns the index of the sampling-weight attribute, or -1.
func (d *Dataset) WeightIndex() int {
	for i, a := range d.Attrs {
		if a.Category == Weight {
			return i
		}
	}
	return -1
}

// Append adds a row, assigning its ID if zero-valued IDs are in use.
func (d *Dataset) Append(r *Row) {
	if r.ID == 0 {
		r.ID = len(d.Rows) + 1
	}
	d.Rows = append(d.Rows, r)
}

// EstimatedBytes estimates what the dataset holds on the heap beside its
// cells' text: a pointer, a Row and the Values of every row. The text is
// left out because the dataset does not own it — a Clone shares it with its
// source and ParseCSV with the bytes it parsed — so resource governors charge
// a cycle's working dataset with this figure; it is a sizing estimate, not
// an allocator mirror.
func (d *Dataset) EstimatedBytes() int64 {
	n := int64(len(d.Attrs)) * int64(unsafe.Sizeof(Attribute{}))
	for _, r := range d.Rows {
		n += int64(8 + unsafe.Sizeof(Row{}) + uintptr(len(r.Values))*unsafe.Sizeof(Value{}))
	}
	return n
}

// Clone deep-copies the dataset, including the null-allocator state, so
// anonymization runs never disturb the original data. Like ReadCSV, it
// allocates the rows as one array and their values as another.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Name:  d.Name,
		Attrs: append([]Attribute(nil), d.Attrs...),
		Rows:  make([]*Row, len(d.Rows)),
		Nulls: d.Nulls,
	}
	n := 0
	for _, r := range d.Rows {
		n += len(r.Values)
	}
	rows, vals := make([]Row, len(d.Rows)), make([]Value, 0, n)
	for i, r := range d.Rows {
		j := len(vals)
		vals = append(vals, r.Values...)
		rows[i] = Row{ID: r.ID, Values: vals[j:len(vals):len(vals)], Weight: r.Weight}
		c.Rows[i] = &rows[i]
	}
	return c
}

// NullCount returns the number of labelled-null values currently stored in
// quasi-identifier positions — the “number of injected nulls” metric of
// Figures 7a, 7c and 7d.
func (d *Dataset) NullCount() int {
	qi := d.QuasiIdentifiers()
	n := 0
	for _, r := range d.Rows {
		for _, i := range qi {
			if r.Values[i].IsNull() {
				n++
			}
		}
	}
	return n
}

// Validate checks structural invariants: attribute names unique and
// non-empty, at most one weight attribute, row arity matching the schema,
// and weights that are finite numbers > 0 where a weight attribute exists.
func (d *Dataset) Validate() error {
	seen := make(map[string]bool, len(d.Attrs))
	weights := 0
	for _, a := range d.Attrs {
		if a.Name == "" {
			return fmt.Errorf("mdb: dataset %q has an unnamed attribute", d.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("mdb: dataset %q has duplicate attribute %q", d.Name, a.Name)
		}
		seen[a.Name] = true
		if a.Category == Weight {
			weights++
		}
	}
	if weights > 1 {
		return fmt.Errorf("mdb: dataset %q has %d weight attributes", d.Name, weights)
	}
	for _, r := range d.Rows {
		if len(r.Values) != len(d.Attrs) {
			return fmt.Errorf("mdb: dataset %q row %d has %d values, want %d",
				d.Name, r.ID, len(r.Values), len(d.Attrs))
		}
		if weights == 1 {
			if err := CheckWeight(r.Weight); err != nil {
				return fmt.Errorf("mdb: dataset %q row %d: bad weight %s: %v",
					d.Name, r.ID, RedactString(strconv.FormatFloat(r.Weight, 'g', -1, 64)), err)
			}
		}
	}
	return nil
}

// CheckWeight is the rule every intake holds a sampling weight to: a finite
// number greater than zero. "NaN" and "Inf" parse as floats, and a NaN weight
// makes its group's risk NaN, which exceeds no threshold.
func CheckWeight(w float64) error {
	if w > 0 && !math.IsInf(w, 1) {
		return nil
	}
	return errors.New("a weight is a finite number > 0")
}

// ParseWeight reads a sampling weight from its cell under CheckWeight's rule.
// The error names the cell by its digest only: strconv.NumError embeds its
// input, so only the unwrapped kind is kept.
func ParseWeight(cell string) (float64, error) {
	w, ok := smallInt(cell)
	var err error
	if !ok {
		if w, err = strconv.ParseFloat(cell, 64); err != nil {
			err = errors.Unwrap(err)
		}
	}
	if err == nil {
		err = CheckWeight(w)
	}
	if err != nil {
		return 0, fmt.Errorf("bad weight %s: %v", RedactString(cell), err)
	}
	return w, nil
}

// smallInt reads a cell of 1 to 15 ASCII digits, the common weight: its
// integer is below 2⁵³, so it is exactly the float strconv.ParseFloat reads.
func smallInt(cell string) (float64, bool) {
	if len(cell) == 0 || len(cell) > 15 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(cell); i++ {
		c := cell[i] - '0'
		if c > 9 {
			return 0, false
		}
		n = n*10 + int(c)
	}
	return float64(n), true
}

// DistinctValues returns the sorted distinct constant values of an attribute.
// Labelled nulls are skipped.
func (d *Dataset) DistinctValues(attr int) []string {
	set := make(map[string]bool)
	for _, r := range d.Rows {
		if v := r.Values[attr]; !v.IsNull() {
			set[v.Constant()] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
