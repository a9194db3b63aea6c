package datalog

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// This file is the way facts enter and leave the columnar store without
// becoming boxed values: Loader appends rows cell by cell, Rows reads them
// back in place, in insertion order or in the order Facts defines.

// Loader appends rows to one predicate of a database. A row is built by
// typed cell calls and committed by EndRow; Database.Add, the /reason
// daemon and programs.TupleFacts all insert through it.
//
// The cell calls only stage their arguments; EndRow interns the whole row
// under one hold of the interner lock and never holds it across a return to
// the caller, so an abandoned row (a decoder that hit a bad cell) leaves
// nothing locked and nothing stored — the next cell call after an EndRow
// starts a fresh row, and Discard drops a partial one. Bytes passed to
// StrBytes must stay unchanged until EndRow. A Loader is not safe for
// concurrent use, and neither is loading one database through two.
type Loader struct {
	db    *Database
	rel   *relation
	cells []cell
	sets  [][]Val // elements of the staged KList cells
	row   []uint32
}

// cell is one staged argument: a number's float bits or a null's id in
// bits, a string as given (s, or b when it still sits in the caller's
// buffer), a set as its index in the loader's sets.
type cell struct {
	k    Kind
	bits uint64
	s    string
	b    []byte
}

// Loader returns a loader for the predicate's relation.
func (db *Database) Loader(pred string) *Loader {
	return &Loader{db: db, rel: db.rel(pred)}
}

// Grow makes room for rows more facts of cells arguments in all, so a load
// whose size is known grows the relation once.
func (l *Loader) Grow(rows, cells int) { l.rel.grow(rows, cells) }

// Str stages a string cell.
func (l *Loader) Str(s string) { l.cells = append(l.cells, cell{k: KStr, s: s}) }

// StrBytes stages a string cell whose text sits in the caller's buffer; it
// is copied only if the string turns out to be new to the database.
func (l *Loader) StrBytes(b []byte) { l.cells = append(l.cells, cell{k: KStr, b: b}) }

// Num stages a numeric cell.
func (l *Loader) Num(n float64) { l.cells = append(l.cells, cell{k: KNum, bits: numBits(n)}) }

// Null stages a labelled-null cell.
func (l *Loader) Null(id uint64) { l.cells = append(l.cells, cell{k: KNull, bits: id}) }

// Val stages a cell of any kind.
func (l *Loader) Val(v Val) { l.stage(&v) }

func (l *Loader) stage(v *Val) {
	switch v.k {
	case KStr:
		l.Str(v.s)
	case KNum:
		l.Num(v.n)
	case KNull:
		l.Null(v.id)
	default:
		l.cells = append(l.cells, cell{k: KList, bits: uint64(len(l.sets))})
		l.sets = append(l.sets, v.l)
	}
}

// Discard drops the cells staged since the last EndRow.
func (l *Loader) Discard() { l.cells, l.sets = l.cells[:0], l.sets[:0] }

// EndRow commits the staged cells as one fact and reports whether it was
// new; a duplicate is ignored. A value already interned costs a table probe
// and builds nothing.
func (l *Loader) EndRow() bool {
	in := l.db.in
	l.row = l.row[:0]
	in.mu.Lock()
	for i := range l.cells {
		c := &l.cells[i]
		var id uint32
		switch {
		case c.k == KStr && c.b != nil:
			id = in.strBytesLocked(c.b)
		case c.k == KStr:
			id = in.strLocked(c.s)
		case c.k == KList:
			id = in.internLocked(Val{k: KList, l: l.sets[c.bits]})
		default:
			id = in.scalarLocked(c.k, c.bits)
		}
		l.row = append(l.row, id)
	}
	in.mu.Unlock()
	l.Discard()
	_, added := l.rel.addRow(l.db, l.row)
	return added
}

// Rows is a read view over one predicate's facts. Row i is decoded on
// demand from the stored ids, so walking a relation allocates nothing per
// fact.
type Rows struct {
	rel  *relation
	iv   iview
	perm []uint32 // row positions in view order; nil means insertion order
}

// Rows returns the predicate's facts in insertion order.
func (db *Database) Rows(pred string) *Rows {
	rs := &Rows{rel: db.rels[pred], iv: iview{in: db.in}}
	rs.iv.refresh()
	return rs
}

// SortedRows returns the predicate's facts in the order Facts returns them:
// ascending by Compare, argument by argument, a proper prefix first. It
// sorts row positions, comparing ids in place — equal ids are equal values,
// unequal ids compare by kind rank and payload — and materializes nothing.
func (db *Database) SortedRows(pred string) *Rows {
	rs := db.Rows(pred)
	// A NaN compares equal to every number, so no key can stand in for
	// Compare on a database that holds one; the keys then stay zero and
	// the sort runs on the full comparison alone.
	_, nan := db.in.lookup(Num(math.NaN()))
	ord := make([]keyedRow, rs.Len())
	for i := range ord {
		ord[i].pos = uint32(i)
		if !nan {
			ord[i].key = sortKey(&rs.iv, rs.rel.row(i))
		}
	}
	slices.SortFunc(ord, func(a, b keyedRow) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return compareRows(&rs.iv, rs.rel.row(int(a.pos)), rs.rel.row(int(b.pos)))
	})
	rs.perm = make([]uint32, len(ord))
	for i := range ord {
		rs.perm[i] = ord[i].pos
	}
	return rs
}

// Len returns the number of facts.
func (rs *Rows) Len() int {
	if rs.rel == nil {
		return 0
	}
	return rs.rel.nrows()
}

// Row returns the i-th fact of the view.
func (rs *Rows) Row(i int) Row {
	if rs.perm != nil {
		i = int(rs.perm[i])
	}
	return Row{iv: &rs.iv, ids: rs.rel.row(i)}
}

// tuples materializes every fact of the view, all out of one backing array.
func (rs *Rows) tuples() []Tuple {
	if rs.rel == nil {
		return nil
	}
	out := make([]Tuple, rs.Len())
	vals := make([]Val, len(rs.rel.data))
	for i := range out {
		ids := rs.Row(i).ids
		out[i], vals = vals[:len(ids):len(ids)], vals[len(ids):]
		for j, id := range ids {
			out[i][j] = rs.iv.val(id)
		}
	}
	return out
}

// Row is one stored fact, valid as long as its database is.
type Row struct {
	iv  *iview
	ids []uint32
}

// Len returns the fact's arity.
func (r Row) Len() int { return len(r.ids) }

// At returns the i-th argument.
func (r Row) At(i int) Val { return r.iv.val(r.ids[i]) }

// ID returns the interned id of the i-th argument: within one database, one
// id is one value.
func (r Row) ID(i int) uint32 { return r.ids[i] }

// Tuple materializes the fact.
func (r Row) Tuple() Tuple {
	t := make(Tuple, len(r.ids))
	for i := range t {
		t[i] = r.At(i)
	}
	return t
}

// Compare orders two facts the way Facts does.
func (r Row) Compare(o Row) int { return compareRows(r.iv, r.ids, o.ids) }

// keyedRow is a row position with its sortKey beside it: most comparisons of
// the sort are decided by two integers in one cache line instead of a walk
// through both rows' columns.
type keyedRow struct {
	key uint64
	pos uint32
}

// sortKey condenses a row's first argument into an integer that never
// contradicts the row order: key(a) < key(b) only if a sorts before b, and
// rows the key cannot tell apart compare in full. The top three bits hold
// the empty row (0) or the argument's kind rank + 1; the rest holds as much
// of the payload as fits — a number's sign-folded float bits, a string's
// first seven bytes, a null's id — and nothing for a set.
func sortKey(iv *iview, row []uint32) uint64 {
	if len(row) == 0 {
		return 0
	}
	k, p := iv.kinds[row[0]], iv.payload[row[0]]
	var low uint64
	switch k {
	case KNum:
		// IEEE 754 bits order like the numbers once negatives are
		// complemented and positives lifted above them.
		if p>>63 != 0 {
			p = ^p
		} else {
			p |= 1 << 63
		}
		low = p >> 3
	case KStr:
		s := iv.strs[p]
		for i := 0; i < 7; i++ {
			low <<= 8
			if i < len(s) {
				low |= uint64(s[i])
			}
		}
	case KNull:
		low = min(p, 1<<61-1)
	}
	return uint64(kindRank[k]+1)<<61 | low
}

// compareRows is the row-level Compare over interned ids, which the view
// must cover (Rows snapshots the interner after the rows were stored).
func compareRows(iv *iview, a, b []uint32) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] == b[k] {
			continue
		}
		if c := compareVids(iv, a[k], b[k]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// compareVids is Compare on two distinct ids, read off the interner columns.
// Distinct ids are unequal values, except that Compare ranks a NaN equal to
// every number; the float comparison below preserves exactly that.
func compareVids(iv *iview, a, b uint32) int {
	ka, kb := iv.kinds[a], iv.kinds[b]
	if ka != kb {
		return kindRank[ka] - kindRank[kb]
	}
	pa, pb := iv.payload[a], iv.payload[b]
	switch ka {
	case KNum:
		x, y := math.Float64frombits(pa), math.Float64frombits(pb)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case KStr:
		return strings.Compare(iv.strs[pa], iv.strs[pb])
	case KNull:
		if pa < pb {
			return -1
		}
		return 1
	default:
		return Compare(iv.lists[pa], iv.lists[pb])
	}
}
