// Package mdb defines the microdata model at the core of Vada-SA: attribute
// values that are either constants or labelled nulls, attributes with
// disclosure categories, microdata datasets, the metadata dictionary, and the
// maybe-match grouping machinery used by every risk measure.
package mdb

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a single attribute value of a microdata tuple. It is either a
// constant (a string; numeric attributes are stored in their textual form or
// binned, as in the paper's microdata DBs) or a labelled null ⊥ᵢ introduced by
// local suppression. The zero Value is the empty constant.
type Value struct {
	null uint64 // 0 means constant; otherwise the labelled-null id
	s    string //conftaint:source raw microdata cell text
}

// Const returns a constant value.
func Const(s string) Value { return Value{s: s} }

// Null returns the labelled null with the given id. Ids must be positive;
// use a NullAllocator to mint fresh ones.
func Null(id uint64) Value {
	if id == 0 {
		panic("mdb: labelled null id must be positive")
	}
	return Value{null: id}
}

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.null != 0 }

// NullID returns the labelled-null id, or 0 if v is a constant.
func (v Value) NullID() uint64 { return v.null }

// Constant returns the constant string; it panics on labelled nulls so that
// accidental use of a null as data is caught early.
func (v Value) Constant() string {
	if v.null != 0 {
		panic(fmt.Sprintf("mdb: Constant called on labelled null ⊥%d", v.null))
	}
	return v.s
}

// String renders constants verbatim and labelled nulls as ⊥i.
func (v Value) String() string {
	if v.null != 0 {
		return "⊥" + strconv.FormatUint(v.null, 10)
	}
	return v.s
}

// ParseValue parses the textual form produced by String. The token "*" is
// accepted as an anonymous labelled null and is assigned a fresh id from a.
func ParseValue(s string, a *NullAllocator) Value {
	if s == "" || s[0] != '*' && s[0] != "⊥"[0] {
		return Const(s)
	}
	if s == "*" {
		return a.Fresh()
	}
	if rest, ok := strings.CutPrefix(s, "⊥"); ok {
		if id, err := strconv.ParseUint(rest, 10, 64); err == nil && id > 0 {
			a.Observe(id)
			return Null(id)
		}
	}
	return Const(s)
}

// NullAllocator mints fresh labelled-null ids. The zero value is ready to use.
type NullAllocator struct {
	n uint64
}

// Fresh returns a labelled null never returned before by this allocator.
func (a *NullAllocator) Fresh() Value {
	a.n++
	return Null(a.n)
}

// Observe tells the allocator that id is in use, so Fresh never collides
// with nulls read back from serialized data.
func (a *NullAllocator) Observe(id uint64) {
	if id > a.n {
		a.n = id
	}
}

// Count returns how many nulls have been allocated or observed.
func (a *NullAllocator) Count() uint64 { return a.n }

// Semantics selects how labelled nulls compare during group formation
// (Section 4.3 of the paper).
type Semantics int

const (
	// MaybeMatch is the null-tolerant semantics adopted by Vada-SA:
	// q =⊥ q' holds iff the two values are the same constant, or at least
	// one of them is a labelled null.
	MaybeMatch Semantics = iota
	// StandardNulls is the Skolem-chase semantics used as the ablation
	// baseline in Figure 7c: two values are equal iff they are the same
	// constant or the same labelled-null symbol.
	StandardNulls
)

// String implements fmt.Stringer.
func (s Semantics) String() string {
	switch s {
	case MaybeMatch:
		return "maybe-match"
	case StandardNulls:
		return "standard"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Compatible reports whether a =⊥ b holds under the given semantics.
func Compatible(a, b Value, sem Semantics) bool {
	switch sem {
	case MaybeMatch:
		if a.null != 0 || b.null != 0 {
			return true
		}
		return a.s == b.s
	case StandardNulls:
		return a == b
	default:
		panic(fmt.Sprintf("mdb: unknown semantics %d", int(sem)))
	}
}

// CompatibleTuple reports whether the projections of two rows onto the given
// attribute indexes are pairwise compatible under sem.
func CompatibleTuple(a, b []Value, idx []int, sem Semantics) bool {
	for _, i := range idx {
		if !Compatible(a[i], b[i], sem) {
			return false
		}
	}
	return true
}
