package anon

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"vadasa/internal/mdb"
)

// Microaggregate applies univariate microaggregation to a numeric attribute:
// values are sorted and partitioned into contiguous groups of at least k
// (the last group absorbs the remainder, so groups have size k..2k−1), and
// every value is replaced by its group mean. Group means repeat at least k
// times, so the attribute alone can no longer single out fewer than k
// tuples, while the column total — and hence the mean — is preserved
// exactly: the classic statistics-preserving transformation of the SDC
// toolboxes (sdcMicro's mdav in one dimension), complementing suppression
// and recoding as a third anonymization method.
//
// Labelled nulls are left untouched and excluded from the grouping; a value
// that is not a finite number is refused before any cell is written.
func Microaggregate(d *mdb.Dataset, attr string, k int) error {
	if k < 2 {
		return fmt.Errorf("anon: microaggregation needs k >= 2, got %d", k)
	}
	idx := d.AttrIndex(attr)
	if idx < 0 {
		return fmt.Errorf("anon: dataset %q has no attribute %q", d.Name, attr)
	}
	type entry struct {
		row   int
		value float64
	}
	var entries []entry
	for row, r := range d.Rows {
		v := r.Values[idx]
		if v.IsNull() {
			continue
		}
		f, err := strconv.ParseFloat(v.Constant(), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("anon: row %d: attribute %q value %s is not numeric",
				r.ID, attr, v.Redacted())
		}
		entries = append(entries, entry{row: row, value: f})
	}
	if len(entries) == 0 {
		return nil
	}
	if len(entries) < k {
		return fmt.Errorf("anon: attribute %q has %d numeric values, fewer than k=%d",
			attr, len(entries), k)
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].value != entries[j].value {
			return entries[i].value < entries[j].value
		}
		return entries[i].row < entries[j].row
	})

	for start := 0; start < len(entries); start += k {
		end := start + k
		if len(entries)-end < k {
			end = len(entries) // last group absorbs the remainder
		}
		sum := 0.0
		for _, e := range entries[start:end] {
			sum += e.value
		}
		mean := sum / float64(end-start)
		label := mdb.Const(strconv.FormatFloat(mean, 'g', -1, 64))
		for _, e := range entries[start:end] {
			d.Rows[e.row].Values[idx] = label
		}
		if end == len(entries) {
			break
		}
	}
	return nil
}
