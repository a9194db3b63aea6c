package mdb

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"vadasa/internal/pool"
)

// idxGroup is one maximal exact-key group maintained by a GroupIndex: the
// rows whose projections onto the index attributes are pairwise equal under
// plain constant equality, with the aggregates every risk measure reads.
// Member positions are kept ascending, so recomputed sums accumulate in the
// same order a fresh ComputeGroups scan would use — GroupInfo weight sums
// stay bit-identical to the full-recompute reference, which the cycle's
// journal replay depends on.
type idxGroup struct {
	proj  []Value
	rows  []int // member row positions, ascending
	count int
	wsum  float64
	// extra* accumulate the contribution of compatible null-bearing rows
	// under maybe-match semantics, rebuilt on every Commit.
	extraCount int
	extraWsum  float64
}

// GroupIndex is the incremental counterpart of ComputeGroups: it is built
// once per anonymization cycle and maintained under the only mutation the
// cycle's hot path performs — a local suppression replacing one cell with a
// fresh labelled null. After a batch of suppressions, Commit folds the
// pending transitions in and reports exactly the rows whose GroupInfo
// changed, so an incremental assessor re-scores only those.
//
// The maintained infos are bit-identical to ComputeGroups on the mutated
// dataset (same summation orders, same candidate orders), under both
// maybe-match and standard-null semantics. Dirtiness propagates through
// key compatibility, not just row membership: under maybe-match a new null
// enlarges the maybe-match sets of every compatible group, so Commit
// rebuilds the null phase (compatible-group sets, pairwise null matches,
// group extras) from scratch and diffs per-row infos — over-approximating
// dirty sets is impossible by construction, because dirty is defined as
// "info changed bitwise".
//
// A GroupIndex is not safe for concurrent mutation; Build and Commit
// parallelize internally through the governor-charged pool.
type GroupIndex struct {
	d   *Dataset
	idx []int
	sem Semantics

	byKey    map[string]int
	groups   []*idxGroup
	rowGroup []int // group id, or -1 for a null-bearing row under maybe-match
	nullRows []int // null-bearing row positions, ascending
	// inv is the build-time inverted index: for position j in idx, constant
	// value -> groups holding it. Groups never change their projection and
	// are never added under maybe-match, so the postings stay valid; empty
	// groups are skipped at lookup time.
	inv []map[string][]int

	infos []GroupInfo
	// spare is the infos vector the last Commit retired, kept as the next
	// Commit's output buffer: recomputeDerived overwrites every position,
	// and Infos is documented valid only until the next Commit.
	spare []GroupInfo

	// pending state between SuppressCell calls and the next Commit.
	touched map[int]bool // groups that lost members
	pending int          // suppressions observed since the last Commit
	invalid bool
}

// BuildGroupIndex constructs the index over the attribute indexes idx under
// the given semantics. Projection-key hashing — the dominant cost of a full
// ComputeGroups — runs on the worker pool; the grouping fold is sequential
// so group identities match a fresh scan.
func BuildGroupIndex(ctx context.Context, d *Dataset, idx []int, sem Semantics) (*GroupIndex, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("mdb: group index needs at least one attribute")
	}
	x := &GroupIndex{
		d:        d,
		idx:      append([]int(nil), idx...),
		sem:      sem,
		byKey:    make(map[string]int, len(d.Rows)),
		rowGroup: make([]int, len(d.Rows)),
		touched:  make(map[int]bool),
	}

	keys := make([]string, len(d.Rows))
	isNull := make([]bool, len(d.Rows))
	err := pool.Run(ctx, len(d.Rows), func(lo, hi int) error {
		for pos := lo; pos < hi; pos++ {
			r := d.Rows[pos]
			if sem == MaybeMatch && x.hasNull(r) {
				isNull[pos] = true
				continue
			}
			keys[pos] = projKey(r.Values, idx)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mdb: building group index: %w", err)
	}

	for pos := range d.Rows {
		if isNull[pos] {
			x.rowGroup[pos] = -1
			x.nullRows = append(x.nullRows, pos)
			continue
		}
		g, ok := x.byKey[keys[pos]]
		if !ok {
			g = len(x.groups)
			x.byKey[keys[pos]] = g
			proj := make([]Value, len(idx))
			for j, i := range idx {
				proj[j] = d.Rows[pos].Values[i]
			}
			x.groups = append(x.groups, &idxGroup{proj: proj})
		}
		x.groups[g].rows = append(x.groups[g].rows, pos)
		x.rowGroup[pos] = g
	}
	for _, g := range x.groups {
		refreshGroupSums(g, d)
	}

	if sem == MaybeMatch {
		x.inv = make([]map[string][]int, len(idx))
		for j := range idx {
			x.inv[j] = make(map[string][]int)
		}
		for g, grp := range x.groups {
			for j, v := range grp.proj {
				key := v.Constant() // complete rows have no nulls
				x.inv[j][key] = append(x.inv[j][key], g)
			}
		}
	}

	x.infos = make([]GroupInfo, len(d.Rows))
	if err := x.recomputeDerived(ctx, x.infos); err != nil {
		return nil, err
	}
	return x, nil
}

// Attrs returns the attribute indexes the index groups by.
func (x *GroupIndex) Attrs() []int { return append([]int(nil), x.idx...) }

// Semantics returns the null semantics the index was built under.
func (x *GroupIndex) Semantics() Semantics { return x.sem }

// Dataset returns the dataset the index maintains groups over.
func (x *GroupIndex) Dataset() *Dataset { return x.d }

// Valid reports whether the index still mirrors its dataset. Invalidate
// turns it false after a mutation the index cannot absorb (any step other
// than a single-cell suppression, e.g. global recoding); callers rebuild.
func (x *GroupIndex) Valid() bool { return !x.invalid }

// Invalidate marks the index stale; every later SuppressCell and Commit is
// rejected until the caller rebuilds.
func (x *GroupIndex) Invalidate() { x.invalid = true }

// Infos returns the per-row GroupInfo vector as of the last Build or
// Commit. The slice is owned by the index: read-only, valid until the next
// Commit.
func (x *GroupIndex) Infos() []GroupInfo { return x.infos }

// Len returns the number of rows the index currently tracks. Between row
// operations and the next Commit it always equals the dataset's row count;
// callers appending rows use it as the required position of the next
// AppendRow.
func (x *GroupIndex) Len() int { return len(x.rowGroup) }

// EstimatedBytes estimates the index's heap footprint for resource
// governors: per-row bookkeeping (rowGroup, infos, key map entry) plus
// per-group structures and the inverted index postings.
func (x *GroupIndex) EstimatedBytes() int64 {
	n := int64(len(x.d.Rows)) * (8 + 24 + 48) // rowGroup + GroupInfo + map entry
	for _, g := range x.groups {
		n += 96 + int64(len(g.rows))*8 + int64(len(g.proj))*32
	}
	for _, m := range x.inv {
		n += int64(len(m)) * 64
	}
	return n
}

// SuppressCell records that the cell (row position pos, attribute index
// attr) has been replaced by a labelled null in the underlying dataset. The
// dataset must already hold the null; the structural move (out of the exact
// group, into the null-row set or a rekeyed group) happens immediately,
// while aggregate and info maintenance is deferred to Commit.
func (x *GroupIndex) SuppressCell(pos, attr int) error {
	if x.invalid {
		return fmt.Errorf("mdb: SuppressCell on invalidated group index")
	}
	if pos < 0 || pos >= len(x.d.Rows) {
		return fmt.Errorf("mdb: SuppressCell row %d out of range", pos)
	}
	indexed := false
	for _, i := range x.idx {
		if i == attr {
			indexed = true
			break
		}
	}
	if !indexed {
		return nil // suppression outside the indexed attributes: groups unchanged
	}
	if !x.d.Rows[pos].Values[attr].IsNull() {
		return fmt.Errorf("mdb: SuppressCell(%d, %d): cell still holds a constant", pos, attr)
	}
	x.pending++

	if x.sem == StandardNulls {
		// The labelled null is a globally unique constant: the row leaves
		// its group and lands in the group of its new key (in practice a
		// fresh singleton, since null ids are never shared across cells).
		old := x.rowGroup[pos]
		x.removeMember(old, pos)
		k := projKey(x.d.Rows[pos].Values, x.idx)
		g, ok := x.byKey[k]
		if !ok {
			g = len(x.groups)
			x.byKey[k] = g
			proj := make([]Value, len(x.idx))
			for j, i := range x.idx {
				proj[j] = x.d.Rows[pos].Values[i]
			}
			x.groups = append(x.groups, &idxGroup{proj: proj})
		}
		grp := x.groups[g]
		grp.rows = insertSorted(grp.rows, pos)
		x.rowGroup[pos] = g
		x.touched[g] = true
		return nil
	}

	// Maybe-match: a first null moves the row from its exact group into the
	// null-row maybe-match structure; further nulls only widen its
	// compatibility, which Commit recomputes wholesale.
	if g := x.rowGroup[pos]; g >= 0 {
		x.removeMember(g, pos)
		x.rowGroup[pos] = -1
		x.nullRows = insertSorted(x.nullRows, pos)
	}
	return nil
}

// AppendRow records that the dataset has grown by one row at position pos,
// which must be the current tracked length (rows enter at the tail, as
// Dataset.Append appends them). The structural placement — joining an
// existing exact group, founding a new one, or entering the maybe-match
// null-row set — happens immediately; aggregate and info maintenance is
// deferred to Commit, which reports the new row (its info starts from the
// zero GroupInfo, never a committed value) and every row whose group it
// changed as dirty.
func (x *GroupIndex) AppendRow(pos int) error {
	if x.invalid {
		return fmt.Errorf("mdb: AppendRow on invalidated group index")
	}
	if pos != len(x.rowGroup) {
		return fmt.Errorf("mdb: AppendRow position %d, want tracked length %d", pos, len(x.rowGroup))
	}
	if pos >= len(x.d.Rows) {
		return fmt.Errorf("mdb: AppendRow(%d): dataset holds only %d rows", pos, len(x.d.Rows))
	}
	x.pending++
	r := x.d.Rows[pos]
	x.rowGroup = append(x.rowGroup, 0)
	x.infos = append(x.infos, GroupInfo{})

	if x.sem == MaybeMatch && x.hasNull(r) {
		x.rowGroup[pos] = -1
		// pos exceeds every tracked position, so appending keeps the
		// null-row list ascending.
		x.nullRows = append(x.nullRows, pos)
		return nil
	}
	k := projKey(r.Values, x.idx)
	g, ok := x.byKey[k]
	if !ok {
		g = len(x.groups)
		x.byKey[k] = g
		proj := make([]Value, len(x.idx))
		for j, i := range x.idx {
			proj[j] = r.Values[i]
		}
		x.groups = append(x.groups, &idxGroup{proj: proj})
		if x.inv != nil {
			// Unlike suppression-minted groups (all-null keys under
			// standard semantics only), appended groups participate in
			// maybe-match candidate lookups, so the postings must learn
			// them. compatibleGroups re-sorts candidates by first member
			// position, so posting order does not affect the result.
			for j, v := range proj {
				key := v.Constant()
				x.inv[j][key] = append(x.inv[j][key], g)
			}
		}
	}
	grp := x.groups[g]
	grp.rows = append(grp.rows, pos) // pos is the largest position: stays ascending
	x.rowGroup[pos] = g
	x.touched[g] = true
	return nil
}

// DeleteRow is DeleteRows for a single position.
func (x *GroupIndex) DeleteRow(pos int) error {
	return x.DeleteRows([]int{pos})
}

// DeleteRows records that the rows at the given positions — strictly
// ascending, as they stood before the deletion — have been removed from the
// dataset and every surviving row shifted down past them. The caller compacts
// the dataset (and any parallel per-row state, such as a previous risk
// vector) before calling. The rows leave their groups or the null-row set and
// every stored position is remapped in one sweep over the index, whatever the
// number of deletions: a surviving position p becomes p minus the number of
// deleted positions below it. Aggregates and infos are refreshed at Commit,
// which reports exactly the surviving rows whose GroupInfo changed.
func (x *GroupIndex) DeleteRows(positions []int) error {
	if x.invalid {
		return fmt.Errorf("mdb: DeleteRows on invalidated group index")
	}
	n, k := len(x.rowGroup), len(positions)
	for i, pos := range positions {
		if pos < 0 || pos >= n {
			return fmt.Errorf("mdb: DeleteRows position %d out of range [0,%d)", pos, n)
		}
		if i > 0 && pos <= positions[i-1] {
			return fmt.Errorf("mdb: DeleteRows positions must be strictly ascending, got %d after %d", pos, positions[i-1])
		}
	}
	if len(x.d.Rows) != n-k {
		return fmt.Errorf("mdb: DeleteRows of %d rows: dataset holds %d rows, want %d (compact before deleting)",
			k, len(x.d.Rows), n-k)
	}
	if k == 0 {
		return nil
	}
	x.pending += k
	for _, pos := range positions {
		if g := x.rowGroup[pos]; g >= 0 {
			x.touched[g] = true
		}
	}
	// Dropping members and shifting the survivors preserves relative order,
	// so member lists and null rows stay ascending and recomputed float sums
	// keep the fresh-scan accumulation order. Groups that only shifted keep
	// the same members in the same order, so their sums are untouched; only
	// the groups that lost a row were marked for refresh above.
	for _, grp := range x.groups {
		grp.rows = compactPositions(grp.rows, positions)
	}
	x.nullRows = compactPositions(x.nullRows, positions)
	x.rowGroup = RemovePositions(x.rowGroup, positions)
	x.infos = RemovePositions(x.infos, positions)
	return nil
}

// RemovePositions deletes the elements of s at the given strictly ascending
// positions, in place: each surviving run moves down once, so the cost is
// linear in len(s) whatever the number of deletions. Per-row state kept
// beside a dataset (its Rows, a risk vector) is compacted with it before
// DeleteRows.
func RemovePositions[T any](s []T, positions []int) []T {
	if len(positions) == 0 {
		return s
	}
	w := positions[0]
	for i, p := range positions {
		end := len(s)
		if i+1 < len(positions) {
			end = positions[i+1]
		}
		w += copy(s[w:], s[p+1:end])
	}
	clear(s[w:]) // drop the stale tail's references
	return s[:w]
}

// compactPositions drops the deleted positions (ascending) from the ascending
// list stored and remaps the survivors, in place: p becomes p minus the
// number of deleted positions below it. Positions outside the deleted range —
// all of them when a window loses its oldest rows, or a single row — take two
// comparisons; only those inside it take a binary search.
func compactPositions(stored, deleted []int) []int {
	k := len(deleted)
	first, last := deleted[0], deleted[k-1]
	if n := len(stored); n == 0 || stored[n-1] < first {
		return stored // nothing at or above the first deletion
	}
	w := 0
	for _, p := range stored {
		switch {
		case p < first:
		case p > last:
			p -= k
		default:
			i, found := slices.BinarySearch(deleted, p)
			if found {
				continue
			}
			p -= i
		}
		stored[w] = p
		w++
	}
	return stored[:w]
}

func (x *GroupIndex) removeMember(g, pos int) {
	grp := x.groups[g]
	i := sort.SearchInts(grp.rows, pos)
	if i < len(grp.rows) && grp.rows[i] == pos {
		grp.rows = append(grp.rows[:i], grp.rows[i+1:]...)
	}
	x.touched[g] = true
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// Commit folds every suppression recorded since the last Commit into the
// maintained aggregates and returns, sorted ascending, exactly the row
// positions whose GroupInfo changed — the dirty set an incremental assessor
// re-scores. With no pending suppressions it returns nil without touching
// anything.
func (x *GroupIndex) Commit(ctx context.Context) ([]int, error) {
	if x.invalid {
		return nil, fmt.Errorf("mdb: Commit on invalidated group index")
	}
	if x.pending == 0 && len(x.touched) == 0 {
		return nil, nil
	}
	if len(x.rowGroup) != len(x.d.Rows) {
		return nil, fmt.Errorf("mdb: Commit: index tracks %d rows, dataset holds %d", len(x.rowGroup), len(x.d.Rows))
	}
	for g := range x.touched {
		refreshGroupSums(x.groups[g], x.d)
	}
	x.touched = make(map[int]bool)
	x.pending = 0

	next := x.spare
	if cap(next) < len(x.d.Rows) {
		next = make([]GroupInfo, len(x.d.Rows))
	}
	next = next[:len(x.d.Rows)]
	if err := x.recomputeDerived(ctx, next); err != nil {
		return nil, err
	}

	// Diff against the previous infos in parallel; per-chunk dirty lists
	// concatenate in chunk order, so the result is ascending regardless of
	// the worker count.
	chunks := pool.ChunkBounds(len(next))
	dirtyPer := make([][]int, len(chunks))
	err := pool.Run(ctx, len(chunks), func(lo, hi int) error {
		for c := lo; c < hi; c++ {
			for pos := chunks[c][0]; pos < chunks[c][1]; pos++ {
				if next[pos] != x.infos[pos] {
					dirtyPer[c] = append(dirtyPer[c], pos)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("mdb: committing group index: %w", err)
	}
	x.infos, x.spare = next, x.infos
	total := 0
	for _, d := range dirtyPer {
		total += len(d)
	}
	if total == 0 {
		return nil, nil
	}
	dirty := make([]int, 0, total)
	for _, d := range dirtyPer {
		dirty = append(dirty, d...)
	}
	return dirty, nil
}

// refreshGroupSums recomputes a group's count and weight sum from its
// member list. Members are ascending, so the floating-point accumulation
// order matches the row-order scan of ComputeGroups exactly.
func refreshGroupSums(g *idxGroup, d *Dataset) {
	g.count = len(g.rows)
	g.wsum = 0
	for _, pos := range g.rows {
		g.wsum += d.Rows[pos].Weight
	}
}

func (x *GroupIndex) hasNull(r *Row) bool {
	for _, i := range x.idx {
		if r.Values[i].IsNull() {
			return true
		}
	}
	return false
}

// recomputeDerived rebuilds everything downstream of the group structure —
// the maybe-match null phase and the per-row infos — into out. It mirrors
// the null-handling of ComputeGroups operation for operation (candidate
// order, extras accumulation order, pairwise scan order), which is what
// makes the maintained infos bit-identical to a fresh full recompute.
func (x *GroupIndex) recomputeDerived(ctx context.Context, out []GroupInfo) error {
	d := x.d
	if x.sem == MaybeMatch {
		// Always reset extras: DeleteRow can remove the last null row, and
		// stale extras from an earlier commit must not leak into the
		// null-free recompute below.
		for _, g := range x.groups {
			g.extraCount, g.extraWsum = 0, 0
		}
	}
	if x.sem == MaybeMatch && len(x.nullRows) > 0 {
		// Compatible-group sets are independent per null row: compute them
		// on the pool, ordered like a fresh scan would order its groups —
		// by first member position, the fresh-run group id order.
		compat := make([][]int, len(x.nullRows))
		err := pool.Run(ctx, len(x.nullRows), func(lo, hi int) error {
			for ni := lo; ni < hi; ni++ {
				compat[ni] = x.compatibleGroups(d.Rows[x.nullRows[ni]])
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("mdb: group index null phase: %w", err)
		}
		// Extras accumulate per group over null rows in ascending row
		// order — the same outer-loop order as ComputeGroups.
		for ni, pos := range x.nullRows {
			w := d.Rows[pos].Weight
			for _, g := range compat[ni] {
				x.groups[g].extraCount++
				x.groups[g].extraWsum += w
			}
		}
		// Per-null-row info: own contribution, then compatible groups in
		// candidate order, then the pairwise null scan in row order —
		// independent per row, so it parallelizes without reordering any
		// floating-point sum.
		err = pool.Run(ctx, len(x.nullRows), func(lo, hi int) error {
			for ni := lo; ni < hi; ni++ {
				pos := x.nullRows[ni]
				freq := 1
				wsum := d.Rows[pos].Weight
				for _, g := range compat[ni] {
					freq += x.groups[g].count
					wsum += x.groups[g].wsum
				}
				for nj, pos2 := range x.nullRows {
					if ni == nj {
						continue
					}
					if CompatibleTuple(d.Rows[pos].Values, d.Rows[pos2].Values, x.idx, MaybeMatch) {
						freq++
						wsum += d.Rows[pos2].Weight
					}
				}
				out[pos] = GroupInfo{Freq: freq, WeightSum: wsum}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("mdb: group index null phase: %w", err)
		}
	}

	return pool.Run(ctx, len(d.Rows), func(lo, hi int) error {
		for pos := lo; pos < hi; pos++ {
			g := x.rowGroup[pos]
			if g < 0 {
				continue // null-bearing row, filled above
			}
			grp := x.groups[g]
			out[pos] = GroupInfo{
				Freq:      grp.count + grp.extraCount,
				WeightSum: grp.wsum + grp.extraWsum,
			}
		}
		return nil
	})
}

// compatibleGroups returns the groups a null-bearing row may match under
// maybe-match, ordered by first member position (= the group order of a
// fresh ComputeGroups over the current dataset) with emptied groups
// dropped. Candidates come from the shortest inverted-index posting among
// the row's non-null positions and are verified in full.
func (x *GroupIndex) compatibleGroups(r *Row) []int {
	best := -1
	for j, i := range x.idx {
		v := r.Values[i]
		if v.IsNull() {
			continue
		}
		l := len(x.inv[j][v.Constant()])
		if best == -1 || l < len(x.inv[best][r.Values[x.idx[best]].Constant()]) {
			best = j
		}
	}
	var out []int
	if best == -1 {
		// All quasi-identifiers are null: compatible with every live group.
		for g, grp := range x.groups {
			if len(grp.rows) > 0 {
				out = append(out, g)
			}
		}
	} else {
		for _, g := range x.inv[best][r.Values[x.idx[best]].Constant()] {
			grp := x.groups[g]
			if len(grp.rows) == 0 {
				continue
			}
			ok := true
			for j, i := range x.idx {
				if r.Values[i].IsNull() {
					continue
				}
				if grp.proj[j].Constant() != r.Values[i].Constant() {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, g)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		return x.groups[out[a]].rows[0] < x.groups[out[b]].rows[0]
	})
	return out
}
