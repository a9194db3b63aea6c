package mdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// projKey builds an unambiguous exact-match key for the projection of values
// onto idx. Labelled nulls are encoded with their symbol so that under
// StandardNulls they behave as ordinary (globally unique) constants.
func projKey(values []Value, idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		v := values[i]
		if v.IsNull() {
			b.WriteString("\x01")
			b.WriteString(strconv.FormatUint(v.NullID(), 10))
		} else {
			s := v.Constant()
			b.WriteString(strconv.Itoa(len(s)))
			b.WriteString("\x00")
			b.WriteString(s)
		}
	}
	return b.String()
}

// exactGroup is a maximal set of rows whose projections are pairwise equal
// under plain constant equality.
type exactGroup struct {
	proj  []Value // representative projection, indexed like idx
	count int
	wsum  float64
	// extra accumulates the contribution of compatible null-bearing rows
	// under maybe-match semantics.
	extraCount int
	extraWsum  float64
}

// pairwiseGroups is the grouping implementation the integer-coded kernel
// replaced, kept verbatim as the oracle: string projection keys, a
// string-keyed inverted index, and the all-pairs CompatibleTuple scan over
// the null-bearing rows. Its summation orders define what "bit-identical"
// means for GroupInfo.WeightSum.
func pairwiseGroups(d *Dataset, idx []int, sem Semantics) []GroupInfo {
	out := make([]GroupInfo, len(d.Rows))
	if len(d.Rows) == 0 {
		return out
	}

	groups := make([]*exactGroup, 0, 64)
	byKey := make(map[string]int, len(d.Rows))
	// rowGroup[i] is the exact group of row i, or -1 for a null-bearing
	// row under maybe-match.
	rowGroup := make([]int, len(d.Rows))
	var nullRows []int

	hasNull := func(r *Row) bool {
		for _, i := range idx {
			if r.Values[i].IsNull() {
				return true
			}
		}
		return false
	}

	for pos, r := range d.Rows {
		if sem == MaybeMatch && hasNull(r) {
			rowGroup[pos] = -1
			nullRows = append(nullRows, pos)
			continue
		}
		k := projKey(r.Values, idx)
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			proj := make([]Value, len(idx))
			for j, i := range idx {
				proj[j] = r.Values[i]
			}
			groups = append(groups, &exactGroup{proj: proj})
		}
		groups[g].count++
		groups[g].wsum += r.Weight
		rowGroup[pos] = g
	}

	if len(nullRows) > 0 {
		// Inverted index: for each position j in idx, constant value →
		// exact groups holding it. Used to find the candidate groups a
		// null-bearing row may match without scanning all groups.
		inv := make([]map[string][]int, len(idx))
		for j := range idx {
			inv[j] = make(map[string][]int)
		}
		for g, grp := range groups {
			for j, v := range grp.proj {
				key := v.Constant() // complete rows have no nulls
				inv[j][key] = append(inv[j][key], g)
			}
		}

		compatibleGroups := func(r *Row) []int {
			// Pick the non-null position with the shortest posting
			// list, then verify candidates in full.
			best := -1
			for j, i := range idx {
				v := r.Values[i]
				if v.IsNull() {
					continue
				}
				l := len(inv[j][v.Constant()])
				if best == -1 || l < len(inv[best][r.Values[idx[best]].Constant()]) {
					best = j
				}
			}
			if best == -1 {
				// All quasi-identifiers are null: compatible with
				// every group.
				all := make([]int, len(groups))
				for g := range groups {
					all[g] = g
				}
				return all
			}
			cands := inv[best][r.Values[idx[best]].Constant()]
			var out []int
			for _, g := range cands {
				ok := true
				for j, i := range idx {
					if r.Values[i].IsNull() {
						continue
					}
					if groups[g].proj[j].Constant() != r.Values[i].Constant() {
						ok = false
						break
					}
				}
				if ok {
					out = append(out, g)
				}
			}
			return out
		}

		nullCompat := make([][]int, len(nullRows)) // groups per null row
		for ni, pos := range nullRows {
			gs := compatibleGroups(d.Rows[pos])
			nullCompat[ni] = gs
			for _, g := range gs {
				groups[g].extraCount++
				groups[g].extraWsum += d.Rows[pos].Weight
			}
		}

		// Pairwise compatibility among null-bearing rows (a null matches
		// a null). Null-bearing rows are few — only anonymized tuples —
		// so the quadratic pass is cheap in practice.
		for ni, pos := range nullRows {
			freq := 1
			wsum := d.Rows[pos].Weight
			for _, g := range nullCompat[ni] {
				freq += groups[g].count
				wsum += groups[g].wsum
			}
			for nj, pos2 := range nullRows {
				if ni == nj {
					continue
				}
				if CompatibleTuple(d.Rows[pos].Values, d.Rows[pos2].Values, idx, MaybeMatch) {
					freq++
					wsum += d.Rows[pos2].Weight
				}
			}
			out[pos] = GroupInfo{Freq: freq, WeightSum: wsum}
		}
	}

	for pos := range d.Rows {
		g := rowGroup[pos]
		if g < 0 {
			continue // already filled above
		}
		grp := groups[g]
		out[pos] = GroupInfo{
			Freq:      grp.count + grp.extraCount,
			WeightSum: grp.wsum + grp.extraWsum,
		}
	}
	return out
}

// scanInfos is the oracle for a grouping with a sensitive column: Freq and
// WeightSum are pairwiseGroups', and what GroupInfo carries of the sensitive
// values is counted the naive way — per row, one CompatibleTuple scan of the
// whole table tallying constants by string, and the distance summed over the
// whole sensitive domain.
func scanInfos(d *Dataset, by Grouping, sem Semantics) []GroupInfo {
	out := pairwiseGroups(d, by.Attrs, sem)
	if by.Sensitive == NoSensitive {
		return out
	}
	table, total := make(map[string]int), 0
	for _, r := range d.Rows {
		if v := r.Values[by.Sensitive]; !v.IsNull() {
			table[v.Constant()]++
			total++
		}
	}
	for pos, r := range d.Rows {
		group, n, suppressed := make(map[string]int), 0, 0
		for _, r2 := range d.Rows {
			if !CompatibleTuple(r.Values, r2.Values, by.Attrs, sem) {
				continue
			}
			if v := r2.Values[by.Sensitive]; v.IsNull() {
				suppressed = 1
			} else {
				group[v.Constant()]++
				n++
			}
		}
		dist := 0
		for k, all := range table {
			dist += max(group[k]*total-all*n, all*n-group[k]*total)
		}
		out[pos].Distinct = int32(len(group) + suppressed)
		out[pos].SensCount, out[pos].SensTotal, out[pos].SensDist = int32(n), int32(total), int64(dist)
	}
	return out
}

// groupings lists what the oracle tests index a table by: its
// quasi-identifiers and, when there are two at least, all but the first with
// the first as the sensitive column — an attribute the tapes suppress.
func groupings(qi []int) []Grouping {
	out := []Grouping{{Attrs: qi, Sensitive: NoSensitive}}
	if len(qi) > 1 {
		out = append(out, Grouping{Attrs: qi[1:], Sensitive: qi[0]})
	}
	return out
}

func sameInfoBits(t *testing.T, label string, got, want []GroupInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d infos, want %d", label, len(got), len(want))
	}
	for i := range want {
		// == on the whole info, and the sum once more by its bits (0 == -0).
		if got[i] != want[i] || math.Float64bits(got[i].WeightSum) != math.Float64bits(want[i].WeightSum) {
			t.Fatalf("%s: row %d: got %+v, want %+v (bitwise mismatch)", label, i, got[i], want[i])
		}
	}
}

// maskedDataset draws a dataset with fractional weights in which a share of
// the rows carry a random null mask: every mask including all-null, drawn
// with repetition over a small value universe so that duplicate patterns
// (same mask, same constants) occur.
func maskedDataset(rng *rand.Rand, rows, qis, domain int, nullShare float64) *Dataset {
	d := randomDataset(rng, rows, qis, domain)
	qi := d.QuasiIdentifiers()
	for _, r := range d.Rows {
		if rng.Float64() >= nullShare {
			continue
		}
		mask := 1 + rng.Intn(1<<qis-1)
		for j, a := range qi {
			if mask&(1<<j) != 0 {
				r.Values[a] = d.Nulls.Fresh()
			}
		}
	}
	return d
}

// The kernel must equal the pairwise oracle bit for bit — Freq, the bits of
// WeightSum and, with a sensitive column, what the infos carry of it —
// through ComputeInfos and through a built index, on random null masks,
// single-attribute indexes and attribute subsets, under both semantics and
// at pool widths 1 and 4.
func TestKernelMatchesPairwiseOracle(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(131))
		for trial := 0; trial < 40; trial++ {
			qis := 1 + rng.Intn(5)
			d := maskedDataset(rng, 20+rng.Intn(300), qis, 2+rng.Intn(4), []float64{0, 0.05, 0.3, 1}[trial%4])
			qi := d.QuasiIdentifiers()
			bys := append(groupings(qi), Grouping{qi[:1], NoSensitive}, Grouping{qi[len(qi)/2:], NoSensitive})
			if len(qi) > 2 { // a subset index whose sensitive column holds nulls
				bys = append(bys, Grouping{qi[1:2], qi[2]})
			}
			for _, by := range bys {
				for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
					label := fmt.Sprintf("procs %d trial %d by %v %s", procs, trial, by, sem)
					want := scanInfos(d, by, sem)
					sameInfoBits(t, label+" ComputeInfos", ComputeInfos(d, by, sem), want)
					x, err := BuildIndex(context.Background(), d, by, sem)
					if err != nil {
						t.Fatal(err)
					}
					sameInfoBits(t, label+" BuildIndex", x.Infos(), want)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// An empty attribute list groups every row together, as it always has
// (FreqWithout over a single quasi-identifier asks for exactly that).
func TestComputeGroupsNoAttributes(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(137)), 25, 2, 3)
	sameInfoBits(t, "no attributes", ComputeGroups(d, nil, MaybeMatch), pairwiseGroups(d, nil, MaybeMatch))
}

// A maintained index must stay on the oracle, bit for bit, through
// interleaved suppressions (down to all-null rows, the sensitive cell
// included), appends of rows that already carry nulls, and batch deletes,
// with the dirty set exactly the rows whose info changed.
func TestKernelRowOpsMatchPairwiseOracle(t *testing.T) {
	ctx := context.Background()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(139))
		for trial := 0; trial < 32; trial++ {
			sem := Semantics(trial % 2)
			qis := 1 + rng.Intn(4)
			domain := 2 + rng.Intn(3)
			d := maskedDataset(rng, 30+rng.Intn(150), qis, domain, 0.1)
			qi := d.QuasiIdentifiers()
			bys := groupings(qi)
			by := bys[trial/2%len(bys)]
			nextID := len(d.Rows)
			x, err := BuildIndex(ctx, d, by, sem)
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 10; batch++ {
				prevInfos := append([]GroupInfo(nil), x.Infos()...)
				for op := 0; op < 1+rng.Intn(12); op++ {
					switch k := rng.Intn(6); {
					case k == 0 && len(d.Rows) > 10:
						ps := randomPositions(rng, len(d.Rows), 1+rng.Intn(8))
						d.Rows = RemovePositions(d.Rows, ps)
						if err := x.DeleteRows(ps); err != nil {
							t.Fatal(err)
						}
						prevInfos = RemovePositions(prevInfos, ps)
					case k == 1:
						appendRandomRow(rng, d, qis, domain, &nextID)
						if rng.Intn(3) == 0 {
							d.Rows[len(d.Rows)-1].Values[qi[rng.Intn(qis)]] = d.Nulls.Fresh()
						}
						if err := x.AppendRow(len(d.Rows) - 1); err != nil {
							t.Fatal(err)
						}
						prevInfos = append(prevInfos, GroupInfo{})
					default:
						pos := rng.Intn(len(d.Rows))
						for _, a := range qi { // sometimes the whole row
							if d.Rows[pos].Values[a].IsNull() || (k != 2 && rng.Intn(qis) != 0) {
								continue
							}
							d.Rows[pos].Values[a] = d.Nulls.Fresh()
							if err := x.SuppressCell(pos, a); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				dirty, err := x.Commit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("procs %d trial %d batch %d by %v %s", procs, trial, batch, by, sem)
				sameInfoBits(t, label, x.Infos(), scanInfos(d, by, sem))
				var want []int
				for pos, info := range x.Infos() {
					if info != prevInfos[pos] {
						want = append(want, pos)
					}
				}
				if fmt.Sprint(dirty) != fmt.Sprint(want) {
					t.Fatalf("%s: dirty set %v, want %v", label, dirty, want)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
