package risk

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vadasa/internal/mdb"
	"vadasa/internal/synth"
)

// The worked example of Section 4.2: restricted to Area, Sector, Employees
// and ResidentialRevenue, tuple 20 of Figure 1 has exactly two minimal
// sample uniques: {Sector} (the only Financial company) and
// {Employees, ResidentialRevenue} (the only 1000+ with 30-60).
func TestMSUsFigure1Tuple20(t *testing.T) {
	d := synth.InflationGrowth()
	attrs := []string{"Area", "Sector", "Employees", "ResidentialRevenue"}
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = d.AttrIndex(a)
	}
	msus := searchMSUs(t, d, idx, 4, mdb.MaybeMatch)
	got := msus[19]
	if len(got) != 2 {
		t.Fatalf("tuple 20 has %d MSUs (%v), want 2", len(got), got)
	}
	var sector, empRes uint32 = 1 << 1, 1<<2 | 1<<3
	found := map[uint32]bool{}
	for _, m := range got {
		found[m] = true
	}
	if !found[sector] || !found[empRes] {
		t.Fatalf("tuple 20 MSUs = %b, want {Sector} and {Employees,ResRev}", got)
	}
}

func TestSUDAAssessorFigure1(t *testing.T) {
	d := synth.InflationGrowth()
	attrs := []string{"Area", "Sector", "Employees", "ResidentialRevenue"}
	rs, err := SUDA{Threshold: 3, Attrs: attrs}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("Assess: %v", err)
	}
	// Tuple 20 has MSUs of sizes 1 and 2, both below 3: dangerous.
	if rs[19] != 1 {
		t.Error("tuple 20 not flagged dangerous")
	}
	// Tuples 2 and 3 share Area/Sector pairs with others but check only
	// that the assessor returns 0/1 values.
	for i, r := range rs {
		if r != 0 && r != 1 {
			t.Errorf("tuple %d risk %g not in {0,1}", i+1, r)
		}
	}
}

// A threshold below 1 and a negative MaxK are refused: the latter would
// search no combination size and score every tuple safe.
func TestSUDAValidatesThreshold(t *testing.T) {
	d := synth.Figure5()
	if _, err := (SUDA{Threshold: 0}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Fatal("Threshold=0 accepted")
	}
	if _, err := (SUDA{Threshold: 3, MaxK: -1}).Assess(d, mdb.MaybeMatch); err == nil {
		t.Fatal("MaxK=-1 accepted")
	}
}

// The search agrees with enumerating every subset through one-shot
// mdb.Frequencies, on tables with and without nulls, under both semantics.
func TestMSUsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(rng, 30, 4, 3)
		idx := d.QuasiIdentifiers()
		for i := 0; i < trial%4*4; i++ {
			d.Rows[rng.Intn(len(d.Rows))].Values[idx[rng.Intn(len(idx))]] = d.Nulls.Fresh()
		}
		for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
			got := searchMSUs(t, d, idx, 3, sem)
			want := bruteForceMSUs(d, idx, 3, sem)
			for row := range want {
				if !sameMaskSet(got[row], want[row]) {
					t.Fatalf("trial %d %s row %d: MSUs %b, want %b", trial, sem, row, got[row], want[row])
				}
			}
		}
	}
}

// Properties: every reported MSU is sample-unique; no proper subset of a
// reported MSU is sample-unique; every sample-unique set contains an MSU.
func TestMSUProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	d := randomDataset(rng, 40, 5, 3)
	idx := d.QuasiIdentifiers()
	maxK := 3
	msus := searchMSUs(t, d, idx, maxK, mdb.MaybeMatch)

	isUnique := func(row int, mask uint32) bool {
		var sub []int
		for i := range idx {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, idx[i])
			}
		}
		return mdb.Frequencies(d, sub, mdb.MaybeMatch)[row] == 1
	}
	for row, ms := range msus {
		for _, m := range ms {
			if !isUnique(row, m) {
				t.Fatalf("row %d: reported MSU %b is not sample-unique", row, m)
			}
			for sub := (m - 1) & m; sub > 0; sub = (sub - 1) & m {
				if isUnique(row, sub) {
					t.Fatalf("row %d: MSU %b has unique proper subset %b", row, m, sub)
				}
			}
		}
	}
	// Coverage: every unique set of size <= maxK has some MSU under it.
	for mask := uint32(1); mask < 1<<uint(len(idx)); mask++ {
		if bits.OnesCount32(mask) > maxK {
			continue
		}
		var sub []int
		for i := range idx {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, idx[i])
			}
		}
		for row, f := range mdb.Frequencies(d, sub, mdb.MaybeMatch) {
			if f != 1 {
				continue
			}
			covered := false
			for _, m := range msus[row] {
				if m&mask == m {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("row %d: unique set %b has no MSU beneath it", row, mask)
			}
		}
	}
}

func TestMSUsRespectNullSemantics(t *testing.T) {
	d := synth.Figure5()
	idx := d.QuasiIdentifiers()
	before := searchMSUs(t, d, idx, 4, mdb.MaybeMatch)
	if len(before[0]) == 0 {
		t.Fatal("tuple 1 should have MSUs before suppression")
	}
	// Suppress Sector of tuple 1: under maybe-match it now matches rows
	// 2-5 on every subset, so it has no sample uniques at all.
	d.Rows[0].Values[d.AttrIndex("Sector")] = d.Nulls.Fresh()
	after := searchMSUs(t, d, idx, 4, mdb.MaybeMatch)
	if len(after[0]) != 0 {
		t.Fatalf("tuple 1 still has MSUs after suppression: %b", after[0])
	}
}

// searchMSUs is MSUsContext under a background context, which cannot fail
// on the few attributes of these tables.
func searchMSUs(t *testing.T, d *mdb.Dataset, idx []int, maxK int, sem mdb.Semantics) [][]uint32 {
	t.Helper()
	out, err := MSUsContext(context.Background(), d, idx, maxK, sem)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func randomDataset(rng *rand.Rand, n, attrs, domain int) *mdb.Dataset {
	as := make([]mdb.Attribute, attrs)
	for i := range as {
		as[i] = mdb.Attribute{Name: string(rune('A' + i)), Category: mdb.QuasiIdentifier}
	}
	d := mdb.NewDataset("rand", as)
	for i := 0; i < n; i++ {
		vals := make([]mdb.Value, attrs)
		for j := range vals {
			vals[j] = mdb.Const(string(rune('a' + rng.Intn(domain))))
		}
		d.Append(&mdb.Row{Values: vals, Weight: float64(rng.Intn(5) + 1)})
	}
	return d
}

// bruteForceMSUs enumerates all subsets and filters minimality explicitly.
func bruteForceMSUs(d *mdb.Dataset, idx []int, maxK int, sem mdb.Semantics) [][]uint32 {
	n := len(idx)
	uniq := make([][]uint32, len(d.Rows))
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		if bits.OnesCount32(mask) > maxK {
			continue
		}
		var sub []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, idx[i])
			}
		}
		for row, f := range mdb.Frequencies(d, sub, sem) {
			if f == 1 {
				uniq[row] = append(uniq[row], mask)
			}
		}
	}
	out := make([][]uint32, len(d.Rows))
	for row, masks := range uniq {
		for _, m := range masks {
			minimal := true
			for _, o := range masks {
				if o != m && o&m == o {
					minimal = false
					break
				}
			}
			if minimal {
				out[row] = append(out[row], m)
			}
		}
	}
	return out
}

func sameMaskSet(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint32]bool, len(a))
	for _, m := range a {
		set[m] = true
	}
	for _, m := range b {
		if !set[m] {
			return false
		}
	}
	return true
}

// The paper's sketched refinement: judge tuples by the average MSU size
// rather than the smallest.
func TestSUDAMeanSizeVariant(t *testing.T) {
	d := synth.InflationGrowth()
	attrs := []string{"Area", "Sector", "Employees", "ResidentialRevenue"}
	// Tuple 20 has MSUs of sizes 1 and 2: mean 1.5.
	strict, err := SUDA{Threshold: 2, Attrs: attrs}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := SUDA{Threshold: 2, UseMeanSize: true, Attrs: attrs, MaxK: 3}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if strict[19] != 1 || mean[19] != 1 {
		t.Fatalf("tuple 20: strict %g, mean %g; want both 1 (mean size 1.5 < 2)", strict[19], mean[19])
	}
	// The mean-size rule is never stricter than the min-size rule at the
	// same threshold when MaxK == Threshold-bounded search is equal: any
	// tuple whose mean is below T has some MSU below T.
	meanK, err := SUDA{Threshold: 3, UseMeanSize: true, Attrs: attrs, MaxK: 3}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	strictK, err := SUDA{Threshold: 3, Attrs: attrs, MaxK: 3}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range meanK {
		if meanK[i] == 1 && strictK[i] == 0 {
			t.Fatalf("tuple %d: mean-size flagged but min-size did not", i+1)
		}
	}
}

// The MSU search finds the same sets, in the same order, whatever the number
// of workers the pool runs it on: one (the calling goroutine alone) or many.
func TestMSUsIndependentOfWorkerCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("one processor: the pool never runs a second goroutine")
	}
	defer runtime.GOMAXPROCS(procs)
	d := synth.Generate(synth.Config{Tuples: 400, QIs: 5, Dist: synth.DistU, Seed: 11})
	qi := d.QuasiIdentifiers()
	want, err := MSUsContext(context.Background(), d, qi, 3, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	got, err := MSUsContext(context.Background(), d, qi, 3, mdb.MaybeMatch)
	if err != nil {
		t.Fatalf("search on one worker: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("one worker found different minimal sample uniques than %d", procs)
	}
}
