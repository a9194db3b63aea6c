package mdb

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// randomDataset builds a dataset with fractional weights so that any
// floating-point summation-order mistake in the index shows up as a bitwise
// mismatch rather than hiding behind integer-valued sums.
func randomDataset(rng *rand.Rand, rows, qis, domain int) *Dataset {
	attrs := make([]Attribute, qis+1)
	for i := 0; i < qis; i++ {
		attrs[i] = Attribute{Name: string(rune('A' + i)), Category: QuasiIdentifier}
	}
	attrs[qis] = Attribute{Name: "W", Category: Weight}
	d := NewDataset("rand", attrs)
	for r := 0; r < rows; r++ {
		vals := make([]Value, qis+1)
		for i := 0; i < qis; i++ {
			vals[i] = Const(string(rune('a' + rng.Intn(domain))))
		}
		w := 1 + rng.Float64()*4
		vals[qis] = Const("w")
		d.Append(&Row{ID: r + 1, Values: vals, Weight: w})
	}
	return d
}

func sameInfos(t *testing.T, label string, got, want []GroupInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d infos, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: got %+v, want %+v (bitwise mismatch)", label, i, got[i], want[i])
		}
	}
}

// differs, which Commit diffs infos with, is != : it sees a change in any one
// field, whatever fields GroupInfo has.
func TestDiffersIsNotEqual(t *testing.T) {
	var zero GroupInfo
	if zero.differs(&zero) {
		t.Fatal("an info differs from itself")
	}
	typ := reflect.TypeOf(zero)
	for i := 0; i < typ.NumField(); i++ {
		var g GroupInfo
		f := reflect.ValueOf(&g).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(0.5)
		default:
			f.SetInt(1)
		}
		if !g.differs(&zero) || !zero.differs(&g) || g == zero {
			t.Errorf("differs misses a change of GroupInfo.%s", typ.Field(i).Name)
		}
	}
}

// The freshly built index must agree bitwise with ComputeGroups, including
// on datasets that already contain nulls (the resume path rebuilds over a
// replayed, null-bearing dataset).
func TestGroupIndexBuildMatchesComputeGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(rng, 50+rng.Intn(300), 2+rng.Intn(3), 2+rng.Intn(5))
		qi := d.QuasiIdentifiers()
		for i := 0; i < rng.Intn(20); i++ {
			d.Rows[rng.Intn(len(d.Rows))].Values[qi[rng.Intn(len(qi))]] = d.Nulls.Fresh()
		}
		for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
			x, err := BuildGroupIndex(context.Background(), d, qi, sem)
			if err != nil {
				t.Fatal(err)
			}
			sameInfos(t, sem.String(), x.Infos(), ComputeGroups(d, qi, sem))
		}
	}
}

// After random suppression batches, Commit-maintained infos must stay
// bit-identical to a fresh ComputeGroups, and the dirty set must be exactly
// the rows whose info changed.
func TestGroupIndexIncrementalMatchesComputeGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 15; trial++ {
		sem := Semantics(trial % 2)
		d := randomDataset(rng, 80+rng.Intn(250), 3, 2+rng.Intn(4))
		qi := d.QuasiIdentifiers()
		x, err := BuildGroupIndex(context.Background(), d, qi, sem)
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 6; batch++ {
			prev := append([]GroupInfo(nil), x.Infos()...)
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				pos := rng.Intn(len(d.Rows))
				attr := qi[rng.Intn(len(qi))]
				if d.Rows[pos].Values[attr].IsNull() {
					continue
				}
				d.Rows[pos].Values[attr] = d.Nulls.Fresh()
				if err := x.SuppressCell(pos, attr); err != nil {
					t.Fatal(err)
				}
			}
			dirty, err := x.Commit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := ComputeGroups(d, qi, sem)
			sameInfos(t, sem.String(), x.Infos(), want)
			// Dirty must be exactly the changed rows, ascending.
			j := 0
			for pos := range want {
				changed := want[pos] != prev[pos]
				inDirty := j < len(dirty) && dirty[j] == pos
				if inDirty {
					j++
				}
				if changed != inDirty {
					t.Fatalf("trial %d batch %d (%s): row %d changed=%v but dirty=%v",
						trial, batch, sem, pos, changed, inDirty)
				}
			}
			if j != len(dirty) {
				t.Fatalf("trial %d: dirty has %d extra/unsorted entries", trial, len(dirty)-j)
			}
		}
	}
}

// A suppression on an attribute outside the indexed set must leave the
// index untouched, and Commit with nothing pending must report no dirt.
func TestGroupIndexIgnoresUnindexedAttributes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := randomDataset(rng, 100, 4, 3)
	qi := d.QuasiIdentifiers()
	sub := qi[:2]
	x, err := BuildGroupIndex(context.Background(), d, sub, MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	d.Rows[7].Values[qi[3]] = d.Nulls.Fresh()
	if err := x.SuppressCell(7, qi[3]); err != nil {
		t.Fatal(err)
	}
	dirty, err := x.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 0 {
		t.Fatalf("suppression outside the index dirtied %d rows", len(dirty))
	}
	sameInfos(t, "subset", x.Infos(), ComputeGroups(d, sub, MaybeMatch))
}

// Suppressing every quasi-identifier of a row exercises the all-null
// compatibility case (compatible with every live group).
func TestGroupIndexAllNullRow(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := randomDataset(rng, 60, 3, 3)
	qi := d.QuasiIdentifiers()
	x, err := BuildGroupIndex(context.Background(), d, qi, MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range qi {
		d.Rows[5].Values[a] = d.Nulls.Fresh()
		if err := x.SuppressCell(5, a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := x.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameInfos(t, "all-null", x.Infos(), ComputeGroups(d, qi, MaybeMatch))
}

// Invalidation is sticky: mutations the index cannot absorb reject further
// maintenance until a rebuild.
func TestGroupIndexInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := randomDataset(rng, 30, 2, 3)
	qi := d.QuasiIdentifiers()
	x, err := BuildGroupIndex(context.Background(), d, qi, MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	x.Invalidate()
	if x.Valid() {
		t.Fatal("index still valid after Invalidate")
	}
	d.Rows[0].Values[qi[0]] = d.Nulls.Fresh()
	if err := x.SuppressCell(0, qi[0]); err == nil {
		t.Fatal("SuppressCell accepted on invalidated index")
	}
	if _, err := x.Commit(context.Background()); err == nil {
		t.Fatal("Commit accepted on invalidated index")
	}
}

// The maintained infos must not depend on the worker count: force real
// parallelism and compare against the sequential reference.
func TestGroupIndexParallelDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, 400, 3, 3)
		qi := d.QuasiIdentifiers()
		x, err := BuildGroupIndex(context.Background(), d, qi, MaybeMatch)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ {
			pos := rng.Intn(len(d.Rows))
			attr := qi[rng.Intn(len(qi))]
			if d.Rows[pos].Values[attr].IsNull() {
				continue
			}
			d.Rows[pos].Values[attr] = d.Nulls.Fresh()
			if err := x.SuppressCell(pos, attr); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := x.Commit(context.Background()); err != nil {
			t.Fatal(err)
		}
		sameInfos(t, "parallel", x.Infos(), ComputeGroups(d, qi, MaybeMatch))
	}
}
