// Package datalog implements a warded-Datalog±-style reasoning engine: the
// substrate that replaces the Vadalog system in this reproduction. It
// supports recursive rules with stratified negation, existential
// quantification in rule heads (implemented with labelled nulls and a
// Skolem-keyed restricted chase), monotonic aggregations with contributor
// semantics (msum, mcount, mprod, munion), equality-generating dependencies,
// comparison and arithmetic built-ins, and fact-level provenance for full
// explainability.
package datalog

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates runtime values.
type Kind uint8

// Value kinds.
const (
	KStr Kind = iota
	KNum
	KNull
	KList
)

// Val is a runtime value: a string constant, a number, a labelled null, or a
// canonical (sorted, deduplicated) list representing a set built by munion.
type Val struct {
	k  Kind
	s  string
	n  float64
	id uint64
	l  []Val
}

// Str returns a string value.
func Str(s string) Val { return Val{k: KStr, s: s} }

// Num returns a numeric value.
func Num(n float64) Val { return Val{k: KNum, n: n} }

// NullVal returns the labelled null with the given id.
func NullVal(id uint64) Val { return Val{k: KNull, id: id} }

// List returns a set value: the elements are sorted and deduplicated so that
// equal sets have equal representations.
func List(elems ...Val) Val {
	l := append([]Val(nil), elems...)
	sort.Slice(l, func(i, j int) bool { return Compare(l[i], l[j]) < 0 })
	out := l[:0]
	for i, v := range l {
		if i == 0 || Compare(v, l[i-1]) != 0 {
			out = append(out, v)
		}
	}
	return Val{k: KList, l: out}
}

// Kind returns the value's kind.
func (v Val) Kind() Kind { return v.k }

// StrVal returns the string content of a KStr value.
func (v Val) StrVal() string {
	if v.k != KStr {
		panic(fmt.Sprintf("datalog: StrVal on %v", v))
	}
	return v.s
}

// NumVal returns the numeric content of a KNum value.
func (v Val) NumVal() float64 {
	if v.k != KNum {
		panic(fmt.Sprintf("datalog: NumVal on %v", v))
	}
	return v.n
}

// NullID returns the labelled-null id of a KNull value.
func (v Val) NullID() uint64 {
	if v.k != KNull {
		panic(fmt.Sprintf("datalog: NullID on %v", v))
	}
	return v.id
}

// Elems returns the elements of a KList value.
func (v Val) Elems() []Val {
	if v.k != KList {
		panic(fmt.Sprintf("datalog: Elems on %v", v))
	}
	return v.l
}

// String renders the value in source-compatible syntax where possible.
func (v Val) String() string {
	switch v.k {
	case KStr:
		return strconv.Quote(v.s)
	case KNum:
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KNull:
		return "⊥" + strconv.FormatUint(v.id, 10)
	case KList:
		parts := make([]string, len(v.l))
		for i, e := range v.l {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ",") + "}"
	default:
		panic("datalog: bad kind")
	}
}

// Key returns a canonical encoding usable as a map key; distinct values have
// distinct keys.
func (v Val) Key() string {
	if v.k == KNum { // the common case, built in one allocation
		var buf [32]byte
		b := strconv.AppendFloat(append(buf[:0], 'n'), v.n, 'g', -1, 64)
		return string(append(b, ';'))
	}
	var b strings.Builder
	v.appendKey(&b)
	return b.String()
}

func (v Val) appendKey(b *strings.Builder) {
	switch v.k {
	case KStr:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(v.s)))
		b.WriteByte(':')
		b.WriteString(v.s)
	case KNum:
		b.WriteByte('n')
		b.WriteString(strconv.FormatFloat(v.n, 'g', -1, 64))
		b.WriteByte(';')
	case KNull:
		b.WriteByte('N')
		b.WriteString(strconv.FormatUint(v.id, 10))
		b.WriteByte(';')
	case KList:
		b.WriteByte('[')
		for _, e := range v.l {
			e.appendKey(b)
		}
		b.WriteByte(']')
	}
}

// kindRank orders values of different kinds: numbers < strings < nulls <
// lists. Compare and the sorted-row traversal (rows.go) both read it.
var kindRank = [...]int{KNum: 0, KStr: 1, KNull: 2, KList: 3}

// Compare imposes a total order on values: numbers < strings < nulls <
// lists; within a kind the natural order applies (lexicographic for lists).
func Compare(a, b Val) int {
	if a.k != b.k {
		return kindRank[a.k] - kindRank[b.k]
	}
	switch a.k {
	case KNum:
		switch {
		case a.n < b.n:
			return -1
		case a.n > b.n:
			return 1
		}
		return 0
	case KStr:
		return strings.Compare(a.s, b.s)
	case KNull:
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	case KList:
		for i := 0; i < len(a.l) && i < len(b.l); i++ {
			if c := Compare(a.l[i], b.l[i]); c != 0 {
				return c
			}
		}
		return len(a.l) - len(b.l)
	default:
		panic("datalog: bad kind")
	}
}

// Equal reports value equality.
func Equal(a, b Val) bool { return Compare(a, b) == 0 }

// Contains reports whether list l contains x. It returns false for non-list
// values so that "X in L" is simply false when L is not a set.
func Contains(l, x Val) bool {
	if l.k != KList {
		return false
	}
	i := sort.Search(len(l.l), func(i int) bool { return Compare(l.l[i], x) >= 0 })
	return i < len(l.l) && Compare(l.l[i], x) == 0
}

// Tuple is a sequence of values: the arguments of a fact.
type Tuple []Val

// Key returns a canonical encoding of the tuple.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		v.appendKey(&b)
	}
	return b.String()
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// ---------------------------------------------------------------------------
// Value interning
//
// The columnar fact store (eval.go) does not hold Val structs: every constant
// is interned once into a dense uint32 id (vid), and facts become flat rows
// of vids. Interning gives the join layer O(1) equality (vid comparison) and
// hash keys without string building.
//
// The interner itself is columnar too. A vid indexes two pointer-free
// columns, kinds and payload: a number's payload is its canonical float
// bits and a labelled null's is its id, so the values that dominate a fact
// load (row ids, weights) are never scanned by the collector and cost one
// open-addressed table probe to find or insert. Strings and lists — few and
// pointer-bearing — live in side tables the payload indexes. A Val is
// materialized from the columns only when something asks for one.
//
// The canonical Key() encoding is not kept: the aggregation folds order
// groups and contributors by keyRank and compareKeys, Key() byte order read
// off the columns, and Skolem keys spell vids.
//
// Identity follows Compare/Equal: +0 and -0 intern to one vid, every NaN
// payload interns to one vid, labelled nulls intern by id, and lists intern
// by their element vids (List() already canonicalizes order and duplicates).
// Values with one vid are Equal. The converse fails in one corner: Compare
// calls a NaN equal to every number, and sets compare element-wise, so Equal
// is asked through iview.equalIDs where a comparison, not an identity, is
// meant.
//
// The interner is shared by a database, the database an EGD pass rebuilds it
// into, and every partition of a parallel run: all mutation happens under
// mu. Readers use an iview snapshot for lock-free access on
// the hot match path; a snapshot is refreshed (under mu) only when it sees a
// vid newer than itself, which can only happen after a happens-before edge
// through the same mutex.

// unboundVid marks an empty slot in a compiled-rule environment.
const unboundVid = ^uint32(0)

// canonNaN is the single bit pattern all NaN payloads intern to.
const canonNaN = 0x7ff8000000000001

func numBits(n float64) uint64 {
	if n == 0 {
		return 0 // collapse -0 into +0: Compare treats them as equal
	}
	if n != n {
		return canonNaN // collapse NaN payloads: Compare treats NaNs as equal
	}
	return math.Float64bits(n)
}

type interner struct {
	mu sync.Mutex
	// Columns indexed by vid, append-only. payload holds the canonical
	// float bits of a KNum, the id of a KNull, and an index into strs or
	// lists for the other two kinds.
	kinds   []Kind
	payload []uint64
	strs    []string
	lists   []Val

	scalars []uint32 // open-addressed (kind, payload) → vid+1 for numbers and nulls
	nScalar int
	strIDs  map[string]uint32
	listIDs map[string]uint32 // keyed by the elements' vids, 4 bytes each

	bytes atomic.Int64 // estimated heap footprint of the interned values
}

func newInterner() *interner {
	return &interner{strIDs: make(map[string]uint32), listIDs: make(map[string]uint32)}
}

// Per-value charges of the running byte estimate. Each is the worst case of
// what the value pins: its column entries at the doubling slices' full
// slack, its lookup-table slot at the table's lowest load, and its payload.
// Deliberately an estimate — the point is to bound runaway chases in bytes,
// not to mirror the allocator — but one that never under-counts.
const (
	scalarBytes = 40  // kinds+payload entries (2×9) and a scalars slot at 3/8 load
	strBytes    = 112 // column entries, the strs header, a strIDs slot; plus len(s)
	listBytes   = 208 // column entries, the lists Val, a listIDs slot and key header
	elemBytes   = 68  // per list element: its Val and 4 key bytes; plus nested payload
)

func elemsBytes(l []Val) int64 {
	n := int64(0)
	for _, e := range l {
		n += elemBytes + int64(len(e.s)) + elemsBytes(e.l)
	}
	return n
}

// intern returns the dense id of v, inserting it if new.
func (in *interner) intern(v Val) uint32 {
	in.mu.Lock()
	id := in.internLocked(v)
	in.mu.Unlock()
	return id
}

func (in *interner) internLocked(v Val) uint32 {
	switch v.k {
	case KStr:
		return in.strLocked(v.s)
	case KNum:
		return in.scalarLocked(KNum, numBits(v.n))
	case KNull:
		return in.scalarLocked(KNull, v.id)
	case KList:
		k, _ := in.listKeyLocked(v, true)
		if id, ok := in.listIDs[k]; ok {
			return id
		}
		id := in.appendLocked(KList, uint64(len(in.lists)), listBytes+elemsBytes(v.l))
		in.lists = append(in.lists, v)
		in.listIDs[k] = id
		return id
	default:
		panic("datalog: bad kind")
	}
}

func (in *interner) strLocked(s string) uint32 {
	if id, ok := in.strIDs[s]; ok {
		return id
	}
	id := in.appendLocked(KStr, uint64(len(in.strs)), strBytes+int64(len(s)))
	in.strs = append(in.strs, s)
	in.strIDs[s] = id
	return id
}

// strBytesLocked is strLocked for a string still sitting in a caller's byte
// buffer: the lookup does not allocate, and only a new string is copied out.
func (in *interner) strBytesLocked(b []byte) uint32 {
	if id, ok := in.strIDs[string(b)]; ok {
		return id
	}
	return in.strLocked(string(b))
}

func scalarHash(k Kind, bits uint64) uint64 { return mix64(bits ^ uint64(k)<<62) }

// mix64 spreads every input bit over the whole word (the 64-bit murmur
// finalizer), so the low bits that an open-addressed table masks out are
// usable whatever produced h.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// probeScalarLocked looks a number (by canonical bits) or a labelled null
// (by id) up in the open-addressed scalar table, which must not be empty.
// The table stores vids only; the compared key is the columns' own (kind,
// payload) pair. A miss returns the empty slot the value belongs in.
func (in *interner) probeScalarLocked(k Kind, bits uint64) (slot uint64, id uint32, found bool) {
	mask := uint64(len(in.scalars) - 1)
	for i := scalarHash(k, bits) & mask; ; i = (i + 1) & mask {
		if in.scalars[i] == 0 {
			return i, 0, false
		}
		if id := in.scalars[i] - 1; in.payload[id] == bits && in.kinds[id] == k {
			return i, id, true
		}
	}
}

// scalarLocked finds or inserts a number or a labelled null.
func (in *interner) scalarLocked(k Kind, bits uint64) uint32 {
	if (in.nScalar+1)*4 >= len(in.scalars)*3 {
		in.growScalars()
	}
	slot, id, found := in.probeScalarLocked(k, bits)
	if !found {
		id = in.appendLocked(k, bits, scalarBytes)
		in.scalars[slot] = id + 1
		in.nScalar++
	}
	return id
}

func (in *interner) growScalars() {
	n := len(in.scalars) * 2
	if n == 0 {
		n = 64
	}
	slots := make([]uint32, n)
	mask := uint64(n - 1)
	for _, s := range in.scalars {
		if s == 0 {
			continue
		}
		i := scalarHash(in.kinds[s-1], in.payload[s-1]) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	in.scalars = slots
}

// findScalarLocked is scalarLocked without inserting.
func (in *interner) findScalarLocked(k Kind, bits uint64) (uint32, bool) {
	if len(in.scalars) == 0 {
		return 0, false
	}
	_, id, found := in.probeScalarLocked(k, bits)
	return id, found
}

// listKeyLocked returns the byte string of a list's element vids — the
// list's identity under Compare, since List() already sorted and
// deduplicated the elements. Elements are interned when insert is set;
// otherwise a never-interned element (the list cannot be interned either)
// reports false.
func (in *interner) listKeyLocked(v Val, insert bool) (string, bool) {
	b := make([]byte, 0, 4*len(v.l))
	for _, e := range v.l {
		var ev uint32
		if insert {
			ev = in.internLocked(e)
		} else if id, ok := in.lookupLocked(e); ok {
			ev = id
		} else {
			return "", false
		}
		b = append(b, byte(ev), byte(ev>>8), byte(ev>>16), byte(ev>>24))
	}
	return string(b), true
}

func (in *interner) appendLocked(k Kind, payload uint64, cost int64) uint32 {
	id := uint32(len(in.kinds))
	in.kinds = append(in.kinds, k)
	in.payload = append(in.payload, payload)
	in.bytes.Add(cost)
	return id
}

// lookup returns the vid of v without inserting. The second result is false
// when v was never interned — in which case no stored fact can contain it.
func (in *interner) lookup(v Val) (uint32, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.lookupLocked(v)
}

func (in *interner) lookupLocked(v Val) (uint32, bool) {
	switch v.k {
	case KStr:
		id, ok := in.strIDs[v.s]
		return id, ok
	case KNum:
		return in.findScalarLocked(KNum, numBits(v.n))
	case KNull:
		return in.findScalarLocked(KNull, v.id)
	case KList:
		k, ok := in.listKeyLocked(v, false)
		if !ok {
			return 0, false
		}
		id, ok := in.listIDs[k]
		return id, ok
	default:
		panic("datalog: bad kind")
	}
}

func materialize(k Kind, payload uint64, strs []string, lists []Val) Val {
	switch k {
	case KNum:
		return Num(math.Float64frombits(payload))
	case KNull:
		return NullVal(payload)
	case KStr:
		return Str(strs[payload])
	default:
		return lists[payload]
	}
}

// iview is a goroutine-local read snapshot of an interner. val is lock-free
// for any vid the goroutine legitimately holds; the snapshot is refreshed
// under the interner lock when it is too short. The columns are append-only
// and a vid is appended in the same lock hold as the side-table entry it
// indexes, so any vid below len(kinds) finds its payload inside the snapshot.
type iview struct {
	in      *interner
	kinds   []Kind
	payload []uint64
	strs    []string
	lists   []Val
}

func (v *iview) refresh() {
	v.in.mu.Lock()
	v.kinds, v.payload, v.strs, v.lists = v.in.kinds, v.in.payload, v.in.strs, v.in.lists
	v.in.mu.Unlock()
}

func (v *iview) val(id uint32) Val {
	if int(id) >= len(v.kinds) {
		v.refresh()
	}
	return materialize(v.kinds[id], v.payload[id], v.strs, v.lists)
}

// num reads a number straight off the columns, with no Val in between; ok is
// false for an id of any other kind.
func (v *iview) num(id uint32) (n float64, ok bool) {
	if int(id) >= len(v.kinds) {
		v.refresh()
	}
	if v.kinds[id] != KNum {
		return 0, false
	}
	return math.Float64frombits(v.payload[id]), true
}

// keyRank is id's rank in Key() byte order, the order the aggregate
// operator flushes groups and folds contributors in: the first eight bytes
// of the value's Key(), big-endian and zero-padded (a set ranks by its
// opening bracket alone). Ranks that differ order their values as their
// Key()s do; distinct ids of one rank are ordered by compareKeys. No key is
// built: a string gives its length and first bytes, and an integer below
// 1e6 in magnitude — a row id, the contributor of every shipped risk
// program — its integer digits, which is how 'g' formatting spells it.
func (v *iview) keyRank(id uint32) uint64 {
	var buf [40]byte
	b := v.appendKeyHead(buf[:0], id)
	var r uint64
	for i := 0; i < 8; i++ {
		r <<= 8
		if i < len(b) {
			r |= uint64(b[i])
		}
	}
	return r
}

// compareKeys is strings.Compare of the Key()s of a and b. Key() quirks it
// keeps: a number compares by its 'g' text, so 10 sorts before 9, and a
// string by its decimal length first, so a 10-byte string sorts before a
// 9-byte one. Only two sets build their keys.
func (v *iview) compareKeys(a, b uint32) int {
	if a == b {
		return 0
	}
	if int(a) >= len(v.kinds) || int(b) >= len(v.kinds) {
		v.refresh()
	}
	ka, kb := v.kinds[a], v.kinds[b]
	switch {
	case ka == KStr && kb == KStr:
		if sa, sb := v.strs[v.payload[a]], v.strs[v.payload[b]]; len(sa) == len(sb) {
			return strings.Compare(sa, sb) // one length prefix: the text decides
		}
	case ka == KList && kb == KList:
		return strings.Compare(v.val(a).Key(), v.val(b).Key())
	}
	// Different kinds differ in the first byte and strings of different
	// lengths within their length prefix: appendKeyHead reaches both.
	var ba, bb [40]byte
	return bytes.Compare(v.appendKeyHead(ba[:0], a), v.appendKeyHead(bb[:0], b))
}

// appendKeyHead appends id's Key() to dst, except that a string's text is
// cut at eight bytes and a set is its opening bracket alone.
func (v *iview) appendKeyHead(dst []byte, id uint32) []byte {
	if int(id) >= len(v.kinds) {
		v.refresh()
	}
	p := v.payload[id]
	switch v.kinds[id] {
	case KNum:
		dst = append(dst, 'n')
		if f := math.Float64frombits(p); f == math.Trunc(f) && math.Abs(f) < 1e6 {
			dst = strconv.AppendInt(dst, int64(f), 10)
		} else {
			dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		}
		return append(dst, ';')
	case KStr:
		s := v.strs[p]
		dst = append(strconv.AppendInt(append(dst, 's'), int64(len(s)), 10), ':')
		return append(dst, s[:min(len(s), 8)]...)
	case KNull:
		return append(strconv.AppendUint(append(dst, 'N'), p, 10), ';')
	}
	return append(dst, '[')
}

// equalIDs is Equal on the values of two ids, decided on the ids wherever
// they settle it: one id is one value, and two ids are two values that
// Compare tells apart — unless a NaN is involved, which Compare ranks equal
// to every number, directly or as an element of two sets.
func (v *iview) equalIDs(a, b uint32) bool {
	if a == b {
		return true
	}
	if int(a) >= len(v.kinds) || int(b) >= len(v.kinds) {
		v.refresh()
	}
	if v.kinds[a] != v.kinds[b] {
		return false
	}
	switch v.kinds[a] {
	case KNum:
		x, y := math.Float64frombits(v.payload[a]), math.Float64frombits(v.payload[b])
		return !(x < y) && !(x > y)
	case KList:
		return Equal(v.val(a), v.val(b))
	}
	return false
}
