package mdb

import "slices"

// tupleSet interns fixed-width tuples of uint32 codes to dense ids, in
// first-insertion order. It is the one hash structure of the grouping
// kernel: exact-group keys, null masks and the mask-projected buckets of the
// maybe-match null phase are all code tuples. Keys live in one flat array
// and the open-addressed slot table holds id+1, so a set of n tuples costs
// n·width + ~4n words and no per-entry allocation.
type tupleSet struct {
	width int
	n     int
	keys  []uint32 // tuple id occupies keys[id*width : (id+1)*width]
	slots []int32  // id+1, 0 = empty; length is a power of two
}

// reset empties the set for tuples of the given width, keeping its storage.
func (t *tupleSet) reset(width int) {
	t.width, t.n = width, 0
	t.keys = t.keys[:0]
	clear(t.slots)
}

func (t *tupleSet) key(id int) []uint32 {
	return t.keys[id*t.width : (id+1)*t.width]
}

func hashTuple(tuple []uint32) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, c := range tuple {
		h = (h ^ uint64(c)) * 0xFF51AFD7ED558CCD
		h ^= h >> 32
	}
	return h
}

// find returns the id of tuple, or -1 if it was never interned.
func (t *tupleSet) find(tuple []uint32) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashTuple(tuple) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if slices.Equal(t.key(int(s-1)), tuple) {
			return int(s - 1)
		}
	}
}

// intern returns the id of tuple, adding it (and reporting fresh) if absent.
// tuple must not alias the set's own key storage.
func (t *tupleSet) intern(tuple []uint32) (id int, fresh bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashTuple(tuple) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(t.n + 1)
			t.keys = append(t.keys, tuple...)
			t.n++
			return t.n - 1, true
		}
		if slices.Equal(t.key(int(s-1)), tuple) {
			return int(s - 1), false
		}
	}
}

// grow doubles the slot table (load factor stays at most one half) and
// re-places every interned tuple.
func (t *tupleSet) grow() {
	t.slots = make([]int32, max(16, 2*len(t.slots)))
	mask := uint64(len(t.slots) - 1)
	for id := 0; id < t.n; id++ {
		i := hashTuple(t.key(id)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// zeroed returns s resized to n elements, all zero, reusing its storage
// when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
