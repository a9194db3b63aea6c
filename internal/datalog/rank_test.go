package datalog

import (
	"cmp"
	"math"
	"strings"
	"testing"
)

// foldOrder is how the aggregate operator orders two ids: by keyRank, and
// by compareKeys where the ranks tie.
func foldOrder(iv *iview, a, b uint32) int {
	if ra, rb := iv.keyRank(a), iv.keyRank(b); ra != rb {
		return cmp.Compare(ra, rb)
	}
	return iv.compareKeys(a, b)
}

// checkFoldRank interns a and b into in and holds the fold's order of the
// two, and compareKeys alone, to the byte order of their Key()s — the
// interned values' Key()s, so -0 and NaN as canonicalised.
func checkFoldRank(t *testing.T, in *interner, a, b Val) {
	t.Helper()
	ia, ib := in.intern(a), in.intern(b)
	iv := iview{in: in}
	want := strings.Compare(iv.val(ia).Key(), iv.val(ib).Key())
	if got := foldOrder(&iv, ia, ib); got != want {
		t.Fatalf("fold order of %s, %s = %d, Key() order %d (keys %q, %q)", a, b, got, want, iv.val(ia).Key(), iv.val(ib).Key())
	}
	if got := iv.compareKeys(ia, ib); got != want {
		t.Fatalf("compareKeys(%s, %s) = %d, Key() order %d", a, b, got, want)
	}
}

// rankValues are the values whose Key()s order against intuition or against
// the rank's shortcuts: numbers whose 'g' text sorts unlike the numbers (10
// before 9, e-notation from 1e6 on, past 2^53), -0 and NaN, strings whose
// decimal length prefix sorts unlike their length (10 before 9, 100 before
// 99) or whose text agrees past the rank's eight bytes, nulls, and sets.
var rankValues = func() []Val {
	var vs []Val
	for _, n := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, 9, 10, 99, 100, 999999, 1e6, 1e6 + 1, 1234567, 1e21, 1 << 53, 1<<53 - 1, 1<<53 + 2,
		-1, -9, -10, -999999, -1e6, -1234567, -(1 << 53), 0.5, 0.1, -0.25, 9.5, 10.5, 1e-7, 5e-324,
		123456.789, math.MaxFloat64} {
		vs = append(vs, Num(n))
	}
	for _, s := range []string{"", "a", "b", "ab", "abcdefgh", "abcdefghi", "abcdefghj",
		strings.Repeat("z", 9), strings.Repeat("a", 10), strings.Repeat("z", 99), strings.Repeat("a", 100),
		strings.Repeat("a", 99) + "b", "\x00", "a\x00", "\xff", "é", "9", "10"} {
		vs = append(vs, Str(s))
	}
	for _, id := range []uint64{1, 9, 10, 100, math.MaxUint64} {
		vs = append(vs, NullVal(id))
	}
	return append(vs, List(), List(Num(10)), List(Num(9)), List(Str("a"), NullVal(2)),
		List(List(Num(1)), Str("abcdefghi")), List(Str("abcdefghi")))
}()

// TestFoldRankIsKeyOrder: every pair of rankValues orders as its Key()s do.
func TestFoldRankIsKeyOrder(t *testing.T) {
	in := newInterner()
	for _, a := range rankValues {
		for _, b := range rankValues {
			checkFoldRank(t, in, a, b)
		}
	}
}

// FuzzFoldRank holds the fold order to Key() byte order over pairs of
// values built from fuzzed parts: strings, numbers, integers (the
// contributors of the shipped risk programs), nulls and sets.
func FuzzFoldRank(f *testing.F) {
	f.Add(uint8(1), 9.0, "", uint8(1), 10.0, "")
	f.Add(uint8(2), 1e6, "", uint8(2), 999999.0, "")
	f.Add(uint8(0), 0.0, "abcdefghi", uint8(0), 0.0, "abcdefghij")
	f.Add(uint8(1), math.NaN(), "", uint8(1), math.Copysign(0, -1), "")
	f.Add(uint8(3), 10.0, "x", uint8(4), 9.0, "x")
	in := newInterner()
	f.Fuzz(func(t *testing.T, ka uint8, na float64, sa string, kb uint8, nb float64, sb string) {
		checkFoldRank(t, in, fuzzVal(ka, na, sa), fuzzVal(kb, nb, sb))
	})
}

func fuzzVal(k uint8, n float64, s string) Val {
	switch k % 5 {
	case 0:
		return Str(s)
	case 1:
		return Num(n)
	case 2:
		return Num(math.Trunc(n))
	case 3:
		return NullVal(math.Float64bits(n))
	}
	return List(Str(s), Num(n))
}
