package mdb

import (
	"context"
	"fmt"
	"maps"
	"slices"
)

// codeTable is the coded projection of a dataset onto some of its
// attributes, the one structure of the package that reads cell strings. Per
// column a dictionary interns constants to dense codes ≥ 1; under maybe-match
// a labelled null is code 0, under standard nulls every null symbol gets a
// code of its own — except in a column past the first w (the sensitive one),
// where a null is a suppressed value, code 0, under both. cells holds one
// uint32 per (row, column), row-major. refs counts the live cells per code
// (refs[j][0] is unused) and deadCodes the codes no cell holds, which is what
// triggers a compaction.
type codeTable struct {
	d    *Dataset
	cols []int // the dataset attribute of each column
	w    int
	sem  Semantics

	consts    []map[string]uint32
	nullCodes []map[uint64]uint32
	refs      [][]int32
	deadCodes int
	cells     []uint32
}

// newCodeTable codes every row of d over cols.
func newCodeTable(d *Dataset, cols []int, w int, sem Semantics) codeTable {
	t := codeTable{d: d, cols: cols, w: w, sem: sem,
		consts:    make([]map[string]uint32, len(cols)),
		nullCodes: make([]map[uint64]uint32, len(cols)),
		refs:      make([][]int32, len(cols)),
		cells:     make([]uint32, 0, len(d.Rows)*len(cols)),
	}
	for j := range cols {
		t.consts[j] = make(map[string]uint32)
		if sem == StandardNulls {
			t.nullCodes[j] = make(map[uint64]uint32)
		}
		t.refs[j] = []int32{0}
	}
	for _, r := range d.Rows {
		t.appendRow(r)
	}
	return t
}

// appendRow codes r onto the end of the matrix.
func (t *codeTable) appendRow(r *Row) {
	for j, i := range t.cols {
		t.cells = append(t.cells, t.code(j, r.Values[i]))
	}
}

// coded returns every code of row pos.
func (t *codeTable) coded(pos int) []uint32 {
	stride := len(t.cols)
	return t.cells[pos*stride : (pos+1)*stride]
}

// code interns the value at column j and takes a reference on its code: the
// one function that reads a cell's string.
func (t *codeTable) code(j int, v Value) uint32 {
	var c uint32
	var ok bool
	if v.null != 0 {
		if t.sem == MaybeMatch || j >= t.w {
			return 0
		}
		if c, ok = t.nullCodes[j][v.null]; !ok {
			c = uint32(len(t.refs[j]))
			t.nullCodes[j][v.null] = c
		}
	} else if c, ok = t.consts[j][v.s]; !ok {
		c = uint32(len(t.refs[j]))
		t.consts[j][v.s] = c
	}
	if !ok {
		t.refs[j] = append(t.refs[j], 0)
	} else if t.refs[j][c] == 0 {
		t.deadCodes--
	}
	t.refs[j][c]++
	return c
}

// unref drops one reference on code c of column j.
func (t *codeTable) unref(j int, c uint32) {
	if c == 0 {
		return
	}
	t.refs[j][c]--
	if t.refs[j][c] == 0 {
		t.deadCodes++
	}
}

// suppress re-codes the cell (pos, attr), which must already hold its
// labelled null, in every column over attr, and reports whether one is.
func (t *codeTable) suppress(pos, attr int) (bool, error) {
	if pos < 0 || pos >= len(t.d.Rows) || (pos+1)*len(t.cols) > len(t.cells) {
		return false, fmt.Errorf("mdb: SuppressCell row %d out of range", pos)
	}
	if !slices.Contains(t.cols, attr) {
		return false, nil // suppression outside the coded attributes
	}
	v := t.d.Rows[pos].Values[attr]
	if !v.IsNull() {
		return false, fmt.Errorf("mdb: SuppressCell(%d, %d): cell still holds a constant", pos, attr)
	}
	cells := t.coded(pos)
	for j, i := range t.cols {
		if i == attr {
			t.unref(j, cells[j])
			cells[j] = t.code(j, v)
		}
	}
	return true, nil
}

// compact renumbers every column's live codes densely, keeping their order,
// into fresh dictionaries that hold only them, and remaps the matrix.
func (t *codeTable) compact() {
	stride := len(t.cols)
	remap := make([][]uint32, stride)
	for j, refs := range t.refs {
		remap[j] = make([]uint32, len(refs))
		live := []int32{0}
		for c, n := range refs[1:] {
			if n > 0 {
				remap[j][c+1] = uint32(len(live))
				live = append(live, n)
			}
		}
		t.refs[j] = live
		t.consts[j] = remapDict(t.consts[j], remap[j], len(live)-1)
		t.nullCodes[j] = remapDict(t.nullCodes[j], remap[j], len(live)-1)
	}
	for row := t.cells; len(row) > 0; row = row[stride:] {
		for j, c := range row[:stride] {
			row[j] = remap[j][c]
		}
	}
	t.deadCodes = 0
}

// remapDict returns dict's entries under their new codes, those of dead codes
// dropped; nil stays nil.
func remapDict[K comparable](dict map[K]uint32, remap []uint32, live int) map[K]uint32 {
	if dict == nil {
		return nil
	}
	out := make(map[K]uint32, live)
	for k, c := range dict {
		if remap[c] != 0 {
			out[k] = remap[c]
		}
	}
	return out
}

// EstimatedBytes estimates the table's heap footprint for resource
// governors: the code matrix, and a dictionary entry and ref count per code.
func (t *codeTable) EstimatedBytes() int64 {
	n := int64(len(t.cells)) * 4
	for _, r := range t.refs {
		n += int64(len(r)) * (48 + 4)
	}
	return n
}

// group runs the grouping kernel over the whole table on the calling
// goroutine and returns every row's GroupInfo.
func (t codeTable) group() []GroupInfo {
	x := &GroupIndex{codeTable: t, workers: 1}
	if err := x.build(context.Background()); err != nil {
		// Unreachable: the background context is never cancelled and the
		// kernel's chunk functions cannot fail.
		panic("mdb: grouping: " + err.Error())
	}
	return x.infos
}

// CodeTable is a dataset's projection onto a list of attributes, coded once
// so that any selection of its columns is grouped without reading a string.
type CodeTable struct{ codeTable }

// NewCodeTable codes d's projection onto attrs under sem.
func NewCodeTable(d *Dataset, attrs []int, sem Semantics) *CodeTable {
	return &CodeTable{Grouping{Attrs: attrs, Sensitive: NoSensitive}.table(d, sem)}
}

// Group returns what ComputeGroups returns over the attributes of the
// table's columns at positions sel, derived from their codes on the calling
// goroutine. It reads the dataset's weights but no value, and writes nothing
// the table holds: selections of one table may be grouped concurrently.
func (t *CodeTable) Group(sel []int) []GroupInfo {
	s := codeTable{d: t.d, cols: make([]int, len(sel)), w: len(sel), sem: t.sem,
		cells: make([]uint32, 0, len(t.d.Rows)*len(sel))}
	for i, j := range sel {
		s.cols[i] = t.cols[j]
	}
	for pos := range t.d.Rows {
		row := t.coded(pos)
		for _, j := range sel {
			s.cells = append(s.cells, row[j])
		}
	}
	return s.group()
}

// CodeTable returns a copy of the index's coding as a CodeTable over attrs
// under sem — the cells of its grouping columns, their dictionaries and
// reference counts — or nil unless the index groups by exactly attrs under
// sem. The copy reads no string. At a Commit it is NewCodeTable(x.Dataset(),
// attrs, sem) up to the numbering of codes, which no count or grouping
// depends on (nor does it count dead codes: only a compaction reads them);
// the index and the copy change independently afterwards.
func (x *GroupIndex) CodeTable(attrs []int, sem Semantics) *CodeTable {
	if x.invalid || x.sem != sem || !slices.Equal(x.cols[:x.w], attrs) {
		return nil
	}
	w, stride := x.w, len(x.cols)
	t := codeTable{d: x.d, cols: slices.Clone(attrs), w: w, sem: sem,
		consts:    make([]map[string]uint32, w),
		nullCodes: make([]map[uint64]uint32, w),
		refs:      make([][]int32, w),
		cells:     make([]uint32, 0, len(x.cells)/stride*w),
	}
	for j := range w {
		t.consts[j] = maps.Clone(x.consts[j])
		t.nullCodes[j] = maps.Clone(x.nullCodes[j])
		t.refs[j] = slices.Clone(x.refs[j])
	}
	for row := x.cells; len(row) > 0; row = row[stride:] {
		t.cells = append(t.cells, row[:w]...)
	}
	return &CodeTable{t}
}

// SuppressCell is GroupIndex.SuppressCell for the matrix alone.
func (t *CodeTable) SuppressCell(pos, attr int) error {
	_, err := t.suppress(pos, attr)
	return err
}

// Counts is a copy of a CodeTable's per-column counts with the dictionaries
// they were taken under, which a CodeTable never writes after its build: it
// outlives the table and every later change to it.
type Counts struct {
	consts []map[string]uint32
	refs   [][]int32 // refs[j][0] counts column j's nulls
}

// Counts copies the table's per-column counts.
func (t *CodeTable) Counts() *Counts {
	c := &Counts{consts: slices.Clone(t.consts), refs: make([][]int32, len(t.refs))}
	for j, refs := range t.refs {
		c.refs[j] = slices.Clone(refs)
		c.refs[j][0] = int32(len(t.d.Rows))
		for _, code := range t.consts[j] {
			c.refs[j][0] -= refs[code]
		}
	}
	return c
}

// Of returns how many rows held the constant v at column j, and how many a
// labelled null, when the counts were taken.
func (c *Counts) Of(j int, v Value) (n, nulls int) {
	if code, ok := c.consts[j][v.s]; ok && v.null == 0 {
		n = int(c.refs[j][code])
	}
	return n, int(c.refs[j][0])
}
