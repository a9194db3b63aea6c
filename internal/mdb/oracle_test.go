package mdb

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// scanInfos is the definition of a row's GroupInfo, computed the naive way:
// per row, one CompatibleTuple scan of the whole table. Freq counts the
// compatible rows and WeightSum adds their weights in row order; with a
// sensitive column, their sensitive constants are tallied by string and the
// distance summed over the whole sensitive domain.
func scanInfos(d *Dataset, by Grouping, sem Semantics) []GroupInfo {
	table, total := make(map[string]int), 0
	if by.Sensitive != NoSensitive {
		for _, r := range d.Rows {
			if v := r.Values[by.Sensitive]; !v.IsNull() {
				table[v.Constant()]++
				total++
			}
		}
	}
	out := make([]GroupInfo, len(d.Rows))
	for pos, r := range d.Rows {
		info := &out[pos]
		group, n, suppressed := make(map[string]int), 0, 0
		for _, r2 := range d.Rows {
			if !CompatibleTuple(r.Values, r2.Values, by.Attrs, sem) {
				continue
			}
			info.Freq++
			info.WeightSum += r2.Weight
			if by.Sensitive == NoSensitive {
				continue
			}
			if v := r2.Values[by.Sensitive]; v.IsNull() {
				suppressed = 1
			} else {
				group[v.Constant()]++
				n++
			}
		}
		if by.Sensitive == NoSensitive {
			continue
		}
		dist := 0
		for k, all := range table {
			dist += max(group[k]*total-all*n, all*n-group[k]*total)
		}
		info.Distinct = int32(len(group) + suppressed)
		info.SensCount, info.SensTotal, info.SensDist = int32(n), int32(total), int64(dist)
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

// sameInfoBits holds got to want field by field and WeightSum by its bits
// (0 == -0). With sums set, the weights are fractional: the kernel may add
// them in another order than the scan, so WeightSum need only be close, and
// its bits go into sums, the digest that pins the kernel's order.
func sameInfoBits(t *testing.T, label string, got, want []GroupInfo, sums hash.Hash) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d infos, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if sums != nil {
			sums.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(g.WeightSum)))
			if math.Abs(g.WeightSum-w.WeightSum) <= 1e-9*math.Abs(w.WeightSum) {
				g.WeightSum = w.WeightSum
			}
		}
		if g != w || math.Float64bits(g.WeightSum) != math.Float64bits(w.WeightSum) {
			t.Fatalf("%s: row %d: got %+v, want %+v (bitwise mismatch)", label, i, got[i], want[i])
		}
	}
}

// dyadic snaps a weight to 1 + k/8: sums of such weights are exact, so any
// summation order gives the scan's bits.
func dyadic(w float64) float64 { return 1 + math.Floor((w-1)*8)/8 }

var updateDigests = flag.Bool("update-digests", false, "record the WeightSum digests of this run in testdata/weightsum.digests")

// checkSums compares the digest of a test's fractional WeightSums with the
// one recorded in testdata/weightsum.digests, or records it.
func checkSums(t *testing.T, sums hash.Hash) {
	t.Helper()
	path := filepath.Join("testdata", "weightsum.digests")
	got := hex.EncodeToString(sums.Sum(nil))[:16]
	src, err := os.ReadFile(path)
	if err != nil && !*updateDigests {
		t.Fatal(err)
	}
	recorded := make(map[string]string)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
		if d, name, ok := strings.Cut(line, " "); ok {
			recorded[name] = d
			names = append(names, name)
		}
	}
	if !*updateDigests {
		if recorded[t.Name()] != got {
			t.Fatalf("the kernel's WeightSum bits moved: digest %s, recorded %q", got, recorded[t.Name()])
		}
		return
	}
	if _, ok := recorded[t.Name()]; !ok {
		names = append(names, t.Name())
	}
	recorded[t.Name()] = got
	var b strings.Builder
	for _, name := range names {
		b.WriteString(recorded[name] + " " + name + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
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

// The kernel must equal the scan oracle — Freq and, with a sensitive column,
// what the infos carry of it — through ComputeInfos and through a built
// index, on random null masks, single-attribute indexes and attribute
// subsets, under both semantics and at pool widths 1 and 4. WeightSum must
// equal the scan's by its bits on dyadic weights, and on the fractional ones
// match the digest recorded when the kernel was last checked bit for bit
// against the all-pairs grouping it replaced.
func TestKernelMatchesPairwiseOracle(t *testing.T) {
	sums := sha256.New()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(131))
		for trial := 0; trial < 40; trial++ {
			qis := 1 + rng.Intn(5)
			frac := maskedDataset(rng, 20+rng.Intn(300), qis, 2+rng.Intn(4), []float64{0, 0.05, 0.3, 1}[trial%4])
			dy := frac.Clone()
			for _, r := range dy.Rows {
				r.Weight = dyadic(r.Weight)
			}
			qi := frac.QuasiIdentifiers()
			bys := append(groupings(qi), Grouping{qi[:1], NoSensitive}, Grouping{qi[len(qi)/2:], NoSensitive})
			if len(qi) > 2 { // a subset index whose sensitive column holds nulls
				bys = append(bys, Grouping{qi[1:2], qi[2]})
			}
			for _, by := range bys {
				for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
					for _, d := range []*Dataset{frac, dy} {
						label := fmt.Sprintf("procs %d trial %d by %v %s dyadic %v", procs, trial, by, sem, d == dy)
						var h hash.Hash
						if d == frac {
							h = sums
						}
						want := scanInfos(d, by, sem)
						sameInfoBits(t, label+" ComputeInfos", ComputeInfos(d, by, sem), want, h)
						x, err := BuildIndex(context.Background(), d, by, sem)
						if err != nil {
							t.Fatal(err)
						}
						sameInfoBits(t, label+" BuildIndex", x.Infos(), want, h)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	checkSums(t, sums)
}

// An empty attribute list groups every row together, as it always has
// (FreqWithout over a single quasi-identifier asks for exactly that).
func TestComputeGroupsNoAttributes(t *testing.T) {
	d := randomDataset(rand.New(rand.NewSource(137)), 25, 2, 3)
	sameInfoBits(t, "no attributes", ComputeGroups(d, nil, MaybeMatch), scanInfos(d, Grouping{nil, NoSensitive}, MaybeMatch), nil)
}

// A maintained index must stay on the oracle through interleaved
// suppressions (down to all-null rows, the sensitive cell included), appends
// of rows that already carry nulls, and batch deletes, with the dirty set
// exactly the rows whose info changed. The tape runs twice: with dyadic
// weights, bit for bit; with fractional ones, WeightSum close and its bits
// on the recorded digest.
func TestKernelRowOpsMatchPairwiseOracle(t *testing.T) {
	ctx := context.Background()
	sums := sha256.New()
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, snap := range []bool{false, true} {
			h := sums
			if snap {
				h = nil
			}
			rowOpsTape(t, ctx, procs, snap, h)
		}
		runtime.GOMAXPROCS(prev)
	}
	checkSums(t, sums)
}

// rowOpsTape plays the row-operation tape, snapping every weight to a
// dyadic one when snap is set.
func rowOpsTape(t *testing.T, ctx context.Context, procs int, snap bool, sums hash.Hash) {
	t.Helper()
	snapRows := func(rows []*Row) {
		for _, r := range rows {
			if snap {
				r.Weight = dyadic(r.Weight)
			}
		}
	}
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 32; trial++ {
		sem := Semantics(trial % 2)
		qis := 1 + rng.Intn(4)
		domain := 2 + rng.Intn(3)
		d := maskedDataset(rng, 30+rng.Intn(150), qis, domain, 0.1)
		snapRows(d.Rows)
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
					snapRows(d.Rows[len(d.Rows)-1:])
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
			label := fmt.Sprintf("procs %d dyadic %v trial %d batch %d by %v %s", procs, snap, trial, batch, by, sem)
			sameInfoBits(t, label, x.Infos(), scanInfos(d, by, sem), sums)
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
}
