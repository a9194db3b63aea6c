package mdb

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// deleteDatasetRow compacts the dataset the way stream withdrawal does:
// remove the row, shift everything after it down one position.
func deleteDatasetRow(d *Dataset, pos int) {
	d.Rows = append(d.Rows[:pos], d.Rows[pos+1:]...)
}

func appendRandomRow(rng *rand.Rand, d *Dataset, qis, domain int, id *int) {
	vals := make([]Value, qis+1)
	for i := 0; i < qis; i++ {
		vals[i] = Const(string(rune('a' + rng.Intn(domain))))
	}
	vals[qis] = Const("w")
	*id++
	d.Append(&Row{ID: *id, Values: vals, Weight: 1 + rng.Float64()*4})
}

// Any interleaving of row appends, row deletes and cell suppressions
// followed by Commit must leave the index bit-identical to one rebuilt from
// scratch over the current dataset, and the dirty set must be exactly the
// positions whose info differs from the previous committed vector after the
// caller-side shift (deletes cut a slot, appends extend with the zero
// GroupInfo) — the same shift an incremental assessor applies to its
// previous risk vector.
func TestGroupIndexRowOpsMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 12; trial++ {
		sem := Semantics(trial % 2)
		qis := 2 + rng.Intn(3)
		domain := 2 + rng.Intn(4)
		d := randomDataset(rng, 40+rng.Intn(120), qis, domain)
		qi := d.QuasiIdentifiers()
		nextID := len(d.Rows)
		x, err := BuildGroupIndex(context.Background(), d, qi, sem)
		if err != nil {
			t.Fatal(err)
		}
		for batch := 0; batch < 8; batch++ {
			// prev mirrors what a caller holds: the last committed infos,
			// shifted alongside every row operation.
			prev := append([]GroupInfo(nil), x.Infos()...)
			ops := 1 + rng.Intn(10)
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(5); {
				case op == 4 && len(d.Rows) > 12: // delete several rows at once
					ps := randomPositions(rng, len(d.Rows), 1+rng.Intn(6))
					d.Rows = RemovePositions(d.Rows, ps)
					if err := x.DeleteRows(ps); err != nil {
						t.Fatal(err)
					}
					prev = RemovePositions(prev, ps)
				case op == 0 && len(d.Rows) > 5: // delete
					pos := rng.Intn(len(d.Rows))
					deleteDatasetRow(d, pos)
					if err := x.DeleteRow(pos); err != nil {
						t.Fatal(err)
					}
					prev = append(prev[:pos], prev[pos+1:]...)
				case op == 1: // append
					appendRandomRow(rng, d, qis, domain, &nextID)
					if err := x.AppendRow(len(d.Rows) - 1); err != nil {
						t.Fatal(err)
					}
					prev = append(prev, GroupInfo{})
				default: // suppress
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
			}
			if x.Len() != len(d.Rows) {
				t.Fatalf("trial %d batch %d: index tracks %d rows, dataset %d", trial, batch, x.Len(), len(d.Rows))
			}
			dirty, err := x.Commit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rebuilt, err := BuildGroupIndex(context.Background(), d, qi, sem)
			if err != nil {
				t.Fatal(err)
			}
			sameInfos(t, sem.String(), x.Infos(), rebuilt.Infos())
			sameInfos(t, sem.String()+"/ref", x.Infos(), ComputeGroups(d, qi, sem))
			j := 0
			for pos := range x.Infos() {
				changed := x.Infos()[pos] != prev[pos]
				inDirty := j < len(dirty) && dirty[j] == pos
				if inDirty {
					j++
				}
				if changed != inDirty {
					t.Fatalf("trial %d batch %d (%s): row %d changed=%v dirty=%v",
						trial, batch, sem, pos, changed, inDirty)
				}
			}
			if j != len(dirty) {
				t.Fatalf("trial %d: %d stray dirty entries", trial, len(dirty)-j)
			}
		}
	}
}

// Deleting down to an empty null-row set must clear stale maybe-match
// extras: suppress a cell, then delete that row, and the committed infos
// must match a fresh scan over the now null-free dataset.
func TestGroupIndexDeleteLastNullRow(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	d := randomDataset(rng, 40, 2, 2)
	qi := d.QuasiIdentifiers()
	x, err := BuildGroupIndex(context.Background(), d, qi, MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	d.Rows[7].Values[qi[0]] = d.Nulls.Fresh()
	if err := x.SuppressCell(7, qi[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	deleteDatasetRow(d, 7)
	if err := x.DeleteRow(7); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameInfos(t, "post-delete", x.Infos(), ComputeGroups(d, qi, MaybeMatch))
}

// Misuse is rejected, not absorbed: out-of-order appends, appends without
// the dataset row, deletes before compaction, unsorted, repeated or
// out-of-range delete positions, and anything after Invalidate.
func TestGroupIndexRowOpsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	d := randomDataset(rng, 20, 2, 3)
	qi := d.QuasiIdentifiers()
	x, err := BuildGroupIndex(context.Background(), d, qi, MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.AppendRow(len(d.Rows)); err == nil {
		t.Fatal("AppendRow accepted a position the dataset does not hold")
	}
	if err := x.AppendRow(3); err == nil {
		t.Fatal("AppendRow accepted an out-of-order position")
	}
	if err := x.DeleteRow(0); err == nil {
		t.Fatal("DeleteRow accepted before the dataset was compacted")
	}
	if err := x.DeleteRow(len(d.Rows)); err == nil {
		t.Fatal("DeleteRow accepted an out-of-range position")
	}
	n := len(d.Rows)
	for _, c := range []struct {
		name      string
		ps        []int
		compacted bool // the dataset was shortened by len(ps), as a caller would
	}{
		{"an uncompacted dataset", []int{1, 2}, false},
		{"unsorted positions", []int{5, 2}, true},
		{"duplicate positions", []int{2, 2}, true},
		{"a negative position", []int{-1, 2}, true},
		{"an out-of-range position", []int{2, n}, true},
	} {
		full := d.Rows
		if c.compacted {
			d.Rows = d.Rows[:n-len(c.ps)]
		}
		if err := x.DeleteRows(c.ps); err == nil {
			t.Fatalf("DeleteRows accepted %s", c.name)
		}
		d.Rows = full
	}
	// Every rejection happened before any mutation: the index still mirrors
	// the dataset and absorbs a valid batch.
	if x.Len() != n {
		t.Fatalf("rejected DeleteRows changed the tracked length to %d, want %d", x.Len(), n)
	}
	if err := x.DeleteRows(nil); err != nil {
		t.Fatalf("empty DeleteRows: %v", err)
	}
	d.Rows = RemovePositions(d.Rows, []int{0, 3})
	if err := x.DeleteRows([]int{0, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}
	sameInfos(t, "after rejections", x.Infos(), ComputeGroups(d, qi, MaybeMatch))

	x.Invalidate()
	if err := x.AppendRow(len(d.Rows)); err == nil {
		t.Fatal("AppendRow accepted on invalidated index")
	}
	if err := x.DeleteRow(0); err == nil {
		t.Fatal("DeleteRow accepted on invalidated index")
	}
	if err := x.DeleteRows([]int{0}); err == nil {
		t.Fatal("DeleteRows accepted on invalidated index")
	}
}

// randomPositions draws k distinct positions below n, ascending.
func randomPositions(rng *rand.Rand, n, k int) []int {
	ps := rng.Perm(n)[:min(k, n)]
	sort.Ints(ps)
	return ps
}

// checkDeleteRows deletes the positions ps from d three ways — one
// DeleteRows, single DeleteRows from the highest position down, and a fresh
// build over the compacted dataset — and requires bitwise equal infos and,
// for the two maintained indexes, the same dirty set: exactly the surviving
// rows whose info differs from the compacted previous vector.
func checkDeleteRows(t *testing.T, label string, d *Dataset, sem Semantics, ps []int) {
	t.Helper()
	ctx := context.Background()
	qi := d.QuasiIdentifiers()
	batchD, singleD := d.Clone(), d.Clone()
	batch, err := BuildGroupIndex(ctx, batchD, qi, sem)
	if err != nil {
		t.Fatal(err)
	}
	single, err := BuildGroupIndex(ctx, singleD, qi, sem)
	if err != nil {
		t.Fatal(err)
	}
	prev := RemovePositions(append([]GroupInfo(nil), batch.Infos()...), ps)

	batchD.Rows = RemovePositions(batchD.Rows, ps)
	if err := batch.DeleteRows(ps); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	batchDirty, err := batch.Commit(ctx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i := len(ps) - 1; i >= 0; i-- {
		deleteDatasetRow(singleD, ps[i])
		if err := single.DeleteRow(ps[i]); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	singleDirty, err := single.Commit(ctx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fresh, err := BuildGroupIndex(ctx, batchD, qi, sem)
	if err != nil {
		t.Fatal(err)
	}

	sameInfos(t, label+"/single", batch.Infos(), single.Infos())
	sameInfos(t, label+"/fresh", batch.Infos(), fresh.Infos())
	sameInfos(t, label+"/ref", batch.Infos(), ComputeGroups(batchD, qi, sem))
	var want []int
	for pos, info := range batch.Infos() {
		if info != prev[pos] {
			want = append(want, pos)
		}
	}
	if !slices.Equal(batchDirty, want) {
		t.Fatalf("%s: DeleteRows dirty set %v, want %v", label, batchDirty, want)
	}
	if !slices.Equal(singleDirty, want) {
		t.Fatalf("%s: single-delete dirty set %v, want %v", label, singleDirty, want)
	}
}

// One DeleteRows ≡ descending single DeleteRows ≡ a fresh build, under both
// semantics, on random position sets and on the structural corner cases:
// null-bearing rows only (which removes the last null row), one whole group,
// a single row, and every row.
func TestGroupIndexDeleteRowsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 10; trial++ {
		qis := 2 + rng.Intn(2)
		d := randomDataset(rng, 30+rng.Intn(90), qis, 2+rng.Intn(3))
		qi := d.QuasiIdentifiers()
		var nulls []int
		for pos := range d.Rows {
			if rng.Intn(8) == 0 {
				d.Rows[pos].Values[qi[rng.Intn(len(qi))]] = d.Nulls.Fresh()
				nulls = append(nulls, pos)
			}
		}
		mid := d.Rows[len(d.Rows)/2].Values
		var group, all []int
		for pos, r := range d.Rows {
			all = append(all, pos)
			if CompatibleTuple(r.Values, mid, qi, StandardNulls) {
				group = append(group, pos)
			}
		}
		for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
			label := fmt.Sprintf("trial %d %s", trial, sem)
			for i := 0; i < 4; i++ {
				checkDeleteRows(t, label+" random", d, sem, randomPositions(rng, len(d.Rows), 1+rng.Intn(len(d.Rows)/2)))
			}
			checkDeleteRows(t, label+" nulls", d, sem, nulls)
			checkDeleteRows(t, label+" group", d, sem, group)
			checkDeleteRows(t, label+" one", d, sem, []int{rng.Intn(len(d.Rows))})
			checkDeleteRows(t, label+" all", d, sem, all)
		}
	}
}

// checkReclaimed requires the index's exact groups and dictionary codes to
// stay proportional to the rows it currently tracks, however many it has
// seen: Commit compacts once the dead outnumber the live.
func checkReclaimed(t *testing.T, x *GroupIndex) {
	t.Helper()
	rows, codes := x.Len(), 0
	for _, r := range x.refs {
		codes += len(r) - 1
	}
	if x.keys.n > 2*rows+compactFloor {
		t.Fatalf("index holds %d groups over a %d-row window", x.keys.n, rows)
	}
	if codes > 2*rows*len(x.cols)+compactFloor {
		t.Fatalf("index holds %d codes over a %d-row window", codes, rows)
	}
}

// checkDictionaries holds the code matrix to the dataset and the
// dictionaries to the matrix: each cell's code is the one its value interns
// to, refs counts the cells of every code exactly, every code has one
// dictionary entry and deadCodes counts those no cell holds — none right after
// a compaction, which leaves no dead group either.
func checkDictionaries(t *testing.T, x *GroupIndex, compacted bool) {
	t.Helper()
	stride, dead := len(x.cols), 0
	for j, attr := range x.cols {
		refs := make([]int32, len(x.refs[j]))
		for pos, r := range x.d.Rows {
			v, c := r.Values[attr], x.cells[pos*stride+j]
			want, ok := uint32(0), true
			if v.null == 0 {
				want, ok = x.consts[j][v.s]
			} else if x.sem == StandardNulls && j < x.w {
				want, ok = x.nullCodes[j][v.null]
			}
			if !ok || c != want {
				t.Fatalf("row %d column %d: %v holds code %d, its dictionary's is %d (%v)", pos, j, v, c, want, ok)
			}
			refs[c]++
		}
		if !slices.Equal(refs[1:], x.refs[j][1:]) {
			t.Fatalf("column %d: refs %v, the cells hold %v", j, x.refs[j][1:], refs[1:])
		}
		entries := make([]int, len(refs))
		for _, c := range x.consts[j] {
			entries[c]++
		}
		for _, c := range x.nullCodes[j] {
			entries[c]++
		}
		for c, n := range entries {
			if want := min(c, 1); n != want {
				t.Fatalf("column %d: code %d has %d dictionary entries, want %d", j, c, n, want)
			}
			if c > 0 && refs[c] == 0 {
				dead++
			}
		}
	}
	if dead != x.deadCodes {
		t.Fatalf("deadCodes = %d, %d codes are held by no cell", x.deadCodes, dead)
	}
	if compacted && (dead > 0 || x.keys.n != x.liveGroups) {
		t.Fatalf("after compaction: %d dead codes, %d groups of which %d live", dead, x.keys.n, x.liveGroups)
	}
}

// structure counts the groups and codes the index holds: only a compaction
// makes it smaller.
func structure(x *GroupIndex) int {
	n := x.keys.n
	for _, r := range x.refs {
		n += len(r)
	}
	return n
}

// Compaction works from the code matrix, never from the dataset's strings:
// with every constant of an index's dataset overwritten by one sentinel after
// the build, suppressions and deletions that make Commit compact leave infos
// and dirty sets equal to those over an unpoisoned twin — under both
// semantics, with and without a sensitive column the tape suppresses too.
func TestGroupIndexCompactsFromCodes(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(113))
	for _, sem := range []Semantics{MaybeMatch, StandardNulls} {
		for _, by := range groupings([]int{0, 1, 2, 3}) {
			label := fmt.Sprintf("%s sensitive=%d", sem, by.Sensitive)
			d := randomDataset(rng, 400, 4, 8)
			twin := d.Clone()
			x, err := BuildIndex(ctx, d, by, sem)
			if err != nil {
				t.Fatal(err)
			}
			prev := append([]GroupInfo(nil), x.Infos()...)
			for _, r := range d.Rows {
				for i, v := range r.Values {
					if !v.IsNull() {
						r.Values[i] = Const("poison")
					}
				}
			}
			compactions := 0
			for round := 0; compactions < 2; round++ {
				if len(d.Rows) < 40 {
					t.Fatalf("%s: %d compactions before the rows ran out", label, compactions)
				}
				for i := 0; i < 10; i++ {
					pos, attr := rng.Intn(len(d.Rows)), rng.Intn(4)
					if d.Rows[pos].Values[attr].IsNull() {
						continue
					}
					v := d.Nulls.Fresh()
					d.Rows[pos].Values[attr], twin.Rows[pos].Values[attr] = v, v
					if err := x.SuppressCell(pos, attr); err != nil {
						t.Fatal(err)
					}
				}
				ps := randomPositions(rng, len(d.Rows), 12)
				d.Rows, twin.Rows = RemovePositions(d.Rows, ps), RemovePositions(twin.Rows, ps)
				if err := x.DeleteRows(ps); err != nil {
					t.Fatal(err)
				}
				prev = RemovePositions(prev, ps)
				before := structure(x)
				dirty, err := x.Commit(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if structure(x) < before {
					compactions++
				}
				want := ComputeInfos(twin, by, sem)
				sameInfoBits(t, fmt.Sprintf("%s round %d", label, round), x.Infos(), want, nil)
				var changed []int
				for pos := range want {
					if want[pos] != prev[pos] {
						changed = append(changed, pos)
					}
				}
				if !slices.Equal(dirty, changed) {
					t.Fatalf("%s round %d: dirty set %v, want %v", label, round, dirty, changed)
				}
				prev = want
			}
		}
	}
}

// FuzzGroupIndexRowOps drives the index — over both quasi-identifiers, and
// over one with the other as its sensitive column — with an adversarial op
// tape: it must never panic, every Commit must agree bitwise with
// ComputeInfos over the mutated dataset and leave the dictionaries true to
// the matrix (checkDictionaries), and the groups and codes it holds must stay
// bounded by the live window.
func FuzzGroupIndexRowOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0xff, 0x80, 7}, int64(1))
	f.Add([]byte{1, 1, 1, 0, 0, 0, 2, 2}, int64(7))
	f.Add([]byte{}, int64(3))
	f.Add([]byte{4, 14, 1, 2, 9, 3, 24, 4, 3}, int64(5))
	// A sliding window: two rows of never-seen values in, one suppression,
	// the two oldest rows out, commit — 300 times over.
	f.Add(bytes.Repeat([]byte{5, 5, 10, 0, 0, 3}, 300), int64(11))
	f.Fuzz(func(t *testing.T, tape []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 4; trial++ {
			sem := Semantics(trial % 2)
			d := randomDataset(rng, 8+rng.Intn(24), 2, 2)
			qi := d.QuasiIdentifiers()
			by := groupings(qi)[trial/2]
			nextID := len(d.Rows)
			x, err := BuildIndex(context.Background(), d, by, sem)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range tape {
				switch b % 4 {
				case 0:
					if len(d.Rows) <= 1 {
						continue
					}
					pos := int(b/4) % len(d.Rows)
					deleteDatasetRow(d, pos)
					if err := x.DeleteRow(pos); err != nil {
						t.Fatal(err)
					}
				case 1:
					appendRandomRow(rng, d, 2, 2, &nextID)
					if b/4%2 == 1 { // values no earlier row carried
						for _, a := range qi {
							d.Rows[len(d.Rows)-1].Values[a] = Const(fmt.Sprint("v", nextID))
						}
					}
					if err := x.AppendRow(len(d.Rows) - 1); err != nil {
						t.Fatal(err)
					}
				case 2:
					pos := int(b/4) % len(d.Rows)
					attr := qi[int(b)%len(qi)]
					if d.Rows[pos].Values[attr].IsNull() {
						continue
					}
					d.Rows[pos].Values[attr] = d.Nulls.Fresh()
					if err := x.SuppressCell(pos, attr); err != nil {
						t.Fatal(err)
					}
				case 3:
					before := structure(x)
					if _, err := x.Commit(context.Background()); err != nil {
						t.Fatal(err)
					}
					sameInfos(t, sem.String(), x.Infos(), ComputeInfos(d, by, sem))
					checkDictionaries(t, x, structure(x) < before)
					checkReclaimed(t, x)
				}
			}
			before := structure(x)
			if _, err := x.Commit(context.Background()); err != nil {
				t.Fatal(err)
			}
			sameInfos(t, sem.String(), x.Infos(), ComputeInfos(d, by, sem))
			checkDictionaries(t, x, structure(x) < before)
		}
	})
}
