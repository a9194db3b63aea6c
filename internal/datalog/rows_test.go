package datalog

// Differential tests of the row loader, the interner columns and the
// sorted-row traversal against their boxed-value references: Add over Val
// tuples, Val.Key(), and sort.Slice over Compare on materialized tuples.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// randVal draws from a small pool per kind so that rows collide, share
// prefixes and repeat: strings that are prefixes of each other, ±0, numbers
// that differ only in their low mantissa bits, nulls, nested sets — and NaN
// when the caller allows it.
func randVal(rng *rand.Rand, nan bool, depth int) Val {
	switch k := rng.Intn(10); {
	case k < 4:
		return Num([]float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e-7, -1e300,
			1 << 53, 1<<53 + 2, math.Nextafter(1, 2), math.Inf(1), math.Inf(-1)}[rng.Intn(13)])
	case k < 7:
		return Str([]string{"", "a", "ab", "abcdefg", "abcdefgh", "abcdefgi", "b", "é", "<>&", "a "}[rng.Intn(10)])
	case k < 8:
		return NullVal(uint64(1 + rng.Intn(4)))
	case k < 9 && nan:
		return Num(math.NaN())
	case depth < 2:
		elems := make([]Val, rng.Intn(3))
		for i := range elems {
			elems[i] = randVal(rng, nan, depth+1)
		}
		return List(elems...)
	}
	return Num(float64(rng.Intn(5)))
}

func randTuples(rng *rand.Rand, n int, nan bool) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		t := make(Tuple, rng.Intn(4))
		for j := range t {
			t[j] = randVal(rng, nan, 0)
		}
		out[i] = t
	}
	return out
}

// TestLoaderMatchesAdd loads the same random tuples through Add and through
// the loader's typed cell calls: same ids, same rows, same dedup decisions,
// same Len and maxNullID.
func TestLoaderMatchesAdd(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tuples := randTuples(rng, 300, true)
		viaAdd, viaCells := NewDatabase(), NewDatabase()
		l := viaCells.Loader("p")
		for i, tu := range tuples {
			added := viaAdd.addTuple("p", tu)
			for _, v := range tu {
				switch v.k {
				case KStr:
					if i%2 == 0 {
						l.StrBytes([]byte(v.s))
					} else {
						l.Str(v.s)
					}
				case KNum:
					l.Num(v.n)
				case KNull:
					l.Null(v.id)
				default:
					l.Val(v)
				}
			}
			if got := l.EndRow(); got != added {
				t.Fatalf("seed %d tuple %d %s: EndRow = %v, Add = %v", seed, i, tu, got, added)
			}
		}
		a, c := viaAdd.rels["p"], viaCells.rels["p"]
		if !reflect.DeepEqual(a.data, c.data) || !reflect.DeepEqual(a.offs, c.offs) {
			t.Fatalf("seed %d: stored rows differ", seed)
		}
		if viaAdd.Len() != viaCells.Len() || viaAdd.maxNullID() != viaCells.maxNullID() {
			t.Fatalf("seed %d: Len %d/%d maxNullID %d/%d", seed,
				viaAdd.Len(), viaCells.Len(), viaAdd.maxNullID(), viaCells.maxNullID())
		}
		if viaAdd.EstimatedBytes() != viaCells.EstimatedBytes() {
			t.Fatalf("seed %d: estimates differ: %d vs %d", seed, viaAdd.EstimatedBytes(), viaCells.EstimatedBytes())
		}
		for _, tu := range tuples {
			if !viaCells.Has("p", tu...) {
				t.Fatalf("seed %d: loaded database lacks %s", seed, tu)
			}
		}
	}
}

// TestLoaderDiscard: a row abandoned mid-way leaves nothing behind.
func TestLoaderDiscard(t *testing.T) {
	db := NewDatabase()
	l := db.Loader("p")
	l.Num(1)
	l.Val(List(Str("x")))
	l.Discard()
	l.Str("only")
	if !l.EndRow() || db.Len() != 1 || !db.Has("p", Str("only")) {
		t.Fatalf("after Discard: %v", db.Facts("p"))
	}
}

// TestInternerColumns: a value read back from the columns is the value that
// went in (under Equal) and equal values share an id.
func TestInternerColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := newInterner()
	iv := iview{in: in}
	byKey := map[string]uint32{}
	before := in.bytes.Load()
	for i := 0; i < 2000; i++ {
		v := randVal(rng, true, 0)
		id := in.intern(v)
		if got := iv.val(id); !Equal(got, v) && !(v.k == KNum && v.n != v.n && got.n != got.n) {
			t.Fatalf("vid %d: interned %s, read back %s", id, v, got)
		}
		if got, ok := in.lookup(v); !ok || got != id {
			t.Fatalf("lookup(%s) = %d,%v, want %d", v, got, ok, id)
		}
		want := iv.val(id).Key()
		if prev, seen := byKey[want]; seen && prev != id {
			t.Fatalf("%s interned twice: %d and %d", v, prev, id)
		}
		byKey[want] = id
	}
	if _, ok := in.lookup(Str("never interned")); ok {
		t.Fatal("lookup invented a string")
	}
	if _, ok := in.lookup(List(Str("never interned"))); ok {
		t.Fatal("lookup invented a list")
	}
	grown := in.bytes.Load() - before
	held := int64(len(in.kinds) * 9)
	for _, s := range in.strs {
		held += int64(16 + len(s))
	}
	if grown < held {
		t.Fatalf("estimate %d under-counts the %d bytes the columns and strings alone hold", grown, held)
	}
}

// sortedReference is Facts as it was before the sorted-row traversal:
// materialize every tuple, sort.Slice over Compare.
func sortedReference(db *Database, pred string) []Tuple {
	out := db.Rows(pred).tuples()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c := Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestSortedRowsMatchCompareSort: the permutation sort over interned ids
// lists rows exactly as sort.Slice over Compare does — mixed kinds, mixed
// arities, ties in every prefix, and (second half of the seeds) NaNs, whose
// Compare is not an order at all and where only running the same algorithm
// on the same comparison keeps the result.
func TestSortedRowsMatchCompareSort(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		for _, tu := range randTuples(rng, 400, seed >= 20) {
			db.addTuple("p", tu)
		}
		want := sortedReference(db, "p")
		got := db.Facts("p")
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d facts, want %d", seed, len(got), len(want))
		}
		rows := db.SortedRows("p")
		for i := range want {
			if got[i].Key() != want[i].Key() || rows.Row(i).Tuple().Key() != want[i].Key() {
				t.Fatalf("seed %d: fact %d is %s, want %s", seed, i, got[i], want[i])
			}
			if i > 0 && seed < 20 && rows.Row(i-1).Compare(rows.Row(i)) >= 0 {
				t.Fatalf("seed %d: Row.Compare disagrees with the order at %d", seed, i)
			}
		}
	}
	if db := NewDatabase(); db.Facts("absent") != nil || db.SortedRows("absent").Len() != 0 {
		t.Fatal("absent predicate has facts")
	}
}

// TestFactsTuplesAreIndependent: the tuples Facts returns share one backing
// array; appending to one must not reach into its neighbour.
func TestFactsTuplesAreIndependent(t *testing.T) {
	db := NewDatabase()
	db.Add("p", Num(1), Num(2))
	db.Add("p", Num(3), Num(4))
	facts := db.Facts("p")
	_ = append(facts[0], Str("grown"))
	if facts[1].String() != "(3,4)" {
		t.Fatalf("neighbour overwritten: %s", facts[1])
	}
}

// TestProvenanceSurvivesNullUnification pins the provenance columns and
// their applySubst remap to the answers the map-based provenance gave
// (testdata/egd_provenance.golden was recorded from it): EGD unification
// merges derived with derived and derived with extensional rows, and every
// fact's first-derivation rule and full explanation stay what they were, at
// every worker count.
func TestProvenanceSurvivesNullUnification(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "egd_provenance.golden"))
	if err != nil {
		t.Fatal(err)
	}
	edb := NewDatabase()
	for _, n := range []string{"a", "b", "c", "d"} {
		edb.Add("person", Str(n))
	}
	edb.Add("emp", Str("z"), NullVal(7))
	edb.Add("dept", NullVal(7))
	edb.Add("same", Str("a"), Str("b"))
	edb.Add("same", Str("z"), Str("c"))
	edb.Add("same", Str("d"), Str("a"))
	edb.Add("boss", Str("x"))
	p := MustParse(`
		emp(N,D) :- person(N).
		dept(D) :- emp(_N,D).
		D1 = D2 :- emp(N1,D1), emp(N2,D2), same(N1,N2).
		mgr(D,M) :- dept(D), boss(M).
		big(D,C) :- emp(N,D), C = mcount([N]).
	`)
	for _, workers := range EquivWorkers {
		res, err := Run(p, BulkCopy(edb), &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, pred := range res.DB().Predicates() {
			for _, f := range res.Facts(pred) {
				rule, _ := res.ProvenanceRule(pred, f...)
				ex, err := res.Explain(pred, f...)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s%s rule=%d\n%s", pred, f, rule, ex)
			}
		}
		if b.String() != string(golden) {
			t.Errorf("workers=%d: provenance differs from the golden:\n%s", workers, b.String())
		}
	}
}

var compareSink int

// BenchmarkCompareMixedKinds: a cross-kind Compare reads a rank table; it
// used to build a four-entry map per call.
func BenchmarkCompareMixedKinds(b *testing.B) {
	vals := []Val{Num(1), Str("a"), NullVal(1), List(Num(1))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		compareSink += Compare(vals[i&3], vals[(i+1)&3])
	}
}
