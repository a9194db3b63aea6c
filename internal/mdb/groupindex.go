package mdb

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"vadasa/internal/pool"
)

// GroupIndex is the grouping kernel of the package: the projection of a
// dataset onto the index attributes, held as dense integer codes, with the
// exact groups and per-row GroupInfo derived from it. ComputeGroups runs it
// once over a throwaway index; the anonymization cycle and the stream keep
// one alive and maintain it under the mutations their hot paths perform — a
// local suppression replacing one cell with a fresh labelled null, rows
// appended at the tail, rows withdrawn. After a batch of mutations, Commit
// folds them in and reports exactly the rows whose GroupInfo changed, so an
// incremental assessor re-scores only those.
//
// The maintained infos are bit-identical to ComputeGroups on the mutated
// dataset under both maybe-match and standard-null semantics, because both
// are the same code: every Commit re-derives group aggregates and the
// maybe-match null phase from the code matrix, accumulating every float sum
// in ascending row order. Dirtiness propagates through key compatibility,
// not just row membership — under maybe-match a new null enlarges the
// maybe-match sets of every compatible group — so Commit diffs per-row
// infos: over-approximating dirty sets is impossible by construction,
// because dirty is defined as "info changed bitwise".
//
// A GroupIndex is not safe for concurrent mutation; Build and Commit
// parallelize internally through the governor-charged pool.
type GroupIndex struct {
	// The code matrix, over the grouping attributes cols[:w] and, when the
	// grouping names one, the sensitive attribute after them; that column's
	// refs are the table's histogram C.
	codeTable
	// workers caps the pool width of derive: 0 means GOMAXPROCS; 1 keeps
	// ComputeInfos on the calling goroutine.
	workers int

	// Exact groups: keys interns the code tuples of the rows that form
	// groups (all rows under standard nulls, null-free rows under
	// maybe-match); the group id is the tuple id. rowGroup is -1 for a
	// null-bearing row under maybe-match.
	keys     tupleSet
	rowGroup []int32
	// inv is the inverted index behind maybe-match candidate lookup: for
	// position j and code c, the groups whose key holds c at j. Built on the
	// first null phase and extended as groups are founded; emptied groups
	// are skipped at lookup time.
	inv [][][]int32

	// Per-group aggregates and the null-row list, re-derived from rowGroup
	// by every aggregate pass: member count, weight sum over members in
	// ascending row order, first member position, and the maybe-match
	// extras contributed by compatible null-bearing rows.
	count      []int32
	wsum       []float64
	first      []int32
	extraCount []int32
	extraWsum  []float64
	liveGroups int
	nullRows   []int32

	// With a sensitive column the same passes derive, laid out by group g,
	// the members (members[memberOffs[g]:memberOffs[g+1]]), the histogram of
	// their sensitive codes (histCodes and histCounts, by histOffs) and the
	// codes of the compatible null rows (extraSens, by extraOffs; those of
	// the all-null rows, which every group shares, once in allNullSens);
	// stats holds per group the sensitive fields of its rows' infos.
	memberOffs, members    []int32
	histOffs, histCounts   []int32
	histCodes              []uint32
	extraOffs              []int32
	extraSens, allNullSens []uint32
	sensTotal              int64 // N: cells of the sensitive column holding a constant
	stats                  []GroupInfo

	infos []GroupInfo
	// changed flags, per row, what a Commit's derive pass found different
	// from the info it overwrote — a byte a row, so that pool workers
	// filling disjoint rows share no word.
	changed []bool

	pending int // mutations observed since the last Commit
	invalid bool
}

// table codes d's projection onto by: its attributes, then the sensitive
// one if it names one.
func (by Grouping) table(d *Dataset, sem Semantics) codeTable {
	cols := append(make([]int, 0, len(by.Attrs)+1), by.Attrs...)
	if by.Sensitive != NoSensitive {
		cols = append(cols, by.Sensitive)
	}
	return newCodeTable(d, cols, len(by.Attrs), sem)
}

// build derives the exact groups and every row's info from the code matrix.
func (x *GroupIndex) build(ctx context.Context) error {
	x.regroup(len(x.d.Rows))
	x.aggregate()
	x.infos = make([]GroupInfo, len(x.d.Rows))
	return x.derive(ctx, nil)
}

// Attrs returns the attribute indexes the index groups by.
func (x *GroupIndex) Attrs() []int { return append([]int(nil), x.cols[:x.w]...) }

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
// Commit. The slice is owned by the index, which re-derives it in place:
// read-only, valid until the next row operation or Commit.
func (x *GroupIndex) Infos() []GroupInfo { return x.infos }

// Len returns the number of rows the index currently tracks. Between row
// operations and the next Commit it always equals the dataset's row count;
// callers appending rows use it as the required position of the next
// AppendRow.
func (x *GroupIndex) Len() int { return len(x.rowGroup) }

// EstimatedBytes estimates the index's heap footprint for resource
// governors: per-row state (code matrix, rowGroup, infos and their change
// flags), the dictionaries, and per-group keys, aggregates and
// inverted-index postings; with a sensitive column also the member layout
// and the histograms, which hold at most one entry per row.
func (x *GroupIndex) EstimatedBytes() int64 {
	w, rows, groups := int64(x.w), int64(len(x.rowGroup)), int64(x.keys.n)
	n := x.codeTable.EstimatedBytes() + rows*(4+int64(unsafe.Sizeof(GroupInfo{}))+1)
	for _, r := range x.refs {
		n += int64(len(r)) * 24 // posting header
	}
	n += groups * (4*w + 8 + 28 + 4*w) // key + slots + aggregates + postings
	if x.sensitive() {
		n += rows*(4+8) + groups*(3*4+int64(unsafe.Sizeof(GroupInfo{})))
	}
	return n
}

// sensitive reports whether the index carries a sensitive column.
func (x *GroupIndex) sensitive() bool { return len(x.cols) > x.w }

// row returns the grouping codes of row pos.
func (x *GroupIndex) row(pos int) []uint32 {
	return x.coded(pos)[:x.w]
}

// sensCode returns the sensitive code of row pos, 0 for a suppressed value.
func (x *GroupIndex) sensCode(pos int) uint32 {
	return x.coded(pos)[x.w]
}

// place returns the exact group of row pos as its codes stand, founding the
// group if the key is new; -1 for a null-bearing row under maybe-match.
func (x *GroupIndex) place(pos int) int32 {
	t := x.row(pos)
	if x.sem == MaybeMatch && slices.Contains(t, 0) {
		return -1
	}
	g, fresh := x.keys.intern(t)
	if fresh && x.inv != nil {
		x.post(g)
	}
	return int32(g)
}

// post enters group g into the inverted-index postings of its key codes.
func (x *GroupIndex) post(g int) {
	for j, c := range x.keys.key(g) {
		for int(c) >= len(x.inv[j]) {
			x.inv[j] = append(x.inv[j], nil)
		}
		x.inv[j][c] = append(x.inv[j][c], int32(g))
	}
}

// regroup re-interns the exact groups of the matrix's n rows from their
// codes, in row order.
func (x *GroupIndex) regroup(n int) {
	x.keys.reset(x.w)
	x.inv = nil
	x.rowGroup = slices.Grow(x.rowGroup[:0], n)
	for pos := 0; pos < n; pos++ {
		x.rowGroup = append(x.rowGroup, x.place(pos))
	}
}

// aggregate re-derives the per-group count, weight sum and first member and
// the null-row list from rowGroup, in one ascending pass — the row-order
// scan that fixes every group sum's floating-point accumulation order.
func (x *GroupIndex) aggregate() {
	g := x.keys.n
	x.count = zeroed(x.count, g)
	x.wsum = zeroed(x.wsum, g)
	x.first = zeroed(x.first, g)
	x.nullRows = x.nullRows[:0]
	x.liveGroups = 0
	for pos, g := range x.rowGroup {
		if g < 0 {
			x.nullRows = append(x.nullRows, int32(pos))
			continue
		}
		if x.count[g] == 0 {
			x.first[g] = int32(pos)
			x.liveGroups++
		}
		x.count[g]++
		x.wsum[g] += x.d.Rows[pos].Weight
	}
	if x.sensitive() {
		x.histograms()
	}
}

// histograms re-derives what the sensitive column adds to the aggregates: N
// and, per exact group, the histogram of its members' sensitive codes. The
// rows are laid out by group, then each group's codes tallied, so the cost
// is the rows whatever the size of the sensitive domain.
func (x *GroupIndex) histograms() {
	x.sensTotal = 0
	for _, c := range x.refs[x.w][1:] {
		x.sensTotal += int64(c)
	}
	x.memberOffs, x.members = bucketLists(x.rowGroup, x.keys.n, x.memberOffs, x.members)
	x.histOffs = zeroed(x.histOffs, x.keys.n+1)
	x.histCodes, x.histCounts = x.histCodes[:0], x.histCounts[:0]
	acc := x.newSensAcc()
	for g := 0; g < x.keys.n; g++ {
		for _, pos := range x.members[x.memberOffs[g]:x.memberOffs[g+1]] {
			acc.add(x.sensCode(int(pos)), 1)
		}
		for _, c := range acc.touched {
			x.histCodes = append(x.histCodes, c)
			x.histCounts = append(x.histCounts, acc.cnt[c])
			acc.cnt[c] = 0
		}
		acc.touched = acc.touched[:0]
		x.histOffs[g+1] = int32(len(x.histCodes))
	}
}

// sensAcc tallies the sensitive codes of the rows compatible with a tuple.
// Exact groups are row-disjoint and a null-bearing row is in none, so that
// histogram is the sum of its parts' — whole groups and single rows, added
// in any order: everything here is integer arithmetic.
type sensAcc struct {
	cnt     []int32 // by code
	touched []uint32
	// The table's histogram C and its sum N, which drain reads against.
	table []int32
	total int64
}

func (x *GroupIndex) newSensAcc() *sensAcc {
	table := x.refs[x.w]
	return &sensAcc{cnt: make([]int32, len(table)), table: table, total: x.sensTotal}
}

func (a *sensAcc) add(code uint32, k int32) {
	if a.cnt[code] == 0 {
		a.touched = append(a.touched, code)
	}
	a.cnt[code] += k
}

// addGroup adds the histogram of exact group g's members.
func (a *sensAcc) addGroup(x *GroupIndex, g int32) {
	for i := x.histOffs[g]; i < x.histOffs[g+1]; i++ {
		a.add(x.histCodes[i], x.histCounts[i])
	}
}

// drain empties the tally into the four fields GroupInfo carries of it, read
// against the table's histogram. D = Σ_k |c_k·N − C_k·n| is summed as N·n +
// Σ_{k tallied} (|c_k·N − C_k·n| − C_k·n): a value the tally does not hold
// contributes C_k·n, and those sum to N·n less the tallied ones' share — so
// the cost is the tally, not the domain.
func (a *sensAcc) drain() GroupInfo {
	N := a.total
	var n int64
	for _, c := range a.touched {
		if c != 0 {
			n += int64(a.cnt[c])
		}
	}
	dist := N * n
	for _, c := range a.touched {
		if c != 0 {
			own, all := int64(a.cnt[c])*N, int64(a.table[c])*n
			dist += max(own-all, all-own) - all
		}
		a.cnt[c] = 0
	}
	info := GroupInfo{Distinct: int32(len(a.touched)), SensCount: int32(n), SensTotal: int32(N), SensDist: dist}
	a.touched = a.touched[:0]
	return info
}

// compactFloor keeps tiny indexes from restructuring over a handful of dead
// entries.
const compactFloor = 64

// wasteful reports whether dead groups or dead dictionary codes outnumber
// the live ones.
func (x *GroupIndex) wasteful() bool {
	if dead := x.keys.n - x.liveGroups; dead > x.liveGroups && dead >= compactFloor {
		return true
	}
	codes := 0
	for _, r := range x.refs {
		codes += len(r) - 1
	}
	return x.deadCodes > codes-x.deadCodes && x.deadCodes >= compactFloor
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
	// Under maybe-match the cell becomes code 0 and the row joins the
	// null-row set; under standard nulls the labelled null is a globally
	// unique constant, so the row lands in the group of its new key (in
	// practice a fresh singleton, since null ids are never shared across
	// cells). A suppressed sensitive value leaves the row where it is.
	if ok, err := x.suppress(pos, attr); !ok {
		return err
	}
	x.pending++
	x.rowGroup[pos] = x.place(pos)
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
	x.appendRow(x.d.Rows[pos])
	x.rowGroup = append(x.rowGroup, x.place(pos))
	x.infos = append(x.infos, GroupInfo{})
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
// vector) before calling. The rows' codes are released and the code matrix,
// rowGroup and infos compacted with the rows, one copy per surviving run
// whatever the number of deletions; surviving rows keep their relative order,
// so the sums Commit re-derives keep the fresh-scan accumulation order.
// Commit reports exactly the surviving rows whose GroupInfo changed.
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
		for j, c := range x.coded(pos) {
			x.unref(j, c)
		}
	}
	x.cells = removeRows(x.cells, len(x.cols), positions)
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
	return removeRows(s, 1, positions)
}

// removeRows is RemovePositions over rows of stride elements each.
func removeRows[T any](s []T, stride int, positions []int) []T {
	if len(positions) == 0 {
		return s
	}
	w := positions[0] * stride
	for i, p := range positions {
		end := len(s)
		if i+1 < len(positions) {
			end = positions[i+1] * stride
		}
		w += copy(s[w:], s[(p+1)*stride:end])
	}
	clear(s[w:]) // drop the stale tail's references
	return s[:w]
}

// Commit folds every mutation recorded since the last Commit into the
// maintained aggregates and returns, sorted ascending, exactly the row
// positions whose GroupInfo changed — the dirty set an incremental assessor
// re-scores. With nothing pending it returns nil without touching anything.
func (x *GroupIndex) Commit(ctx context.Context) ([]int, error) {
	if x.invalid {
		return nil, fmt.Errorf("mdb: Commit on invalidated group index")
	}
	if x.pending == 0 {
		return nil, nil
	}
	if len(x.rowGroup) != len(x.d.Rows) {
		return nil, fmt.Errorf("mdb: Commit: index tracks %d rows, dataset holds %d", len(x.rowGroup), len(x.d.Rows))
	}
	x.pending = 0
	x.aggregate()
	if x.wasteful() {
		// Compacting the codes and re-interning the groups from them keeps a
		// long-lived stream window's index proportional to the window; codes
		// and group ids are internal, infos do not depend on them.
		x.compact()
		x.regroup(len(x.rowGroup))
		x.aggregate()
	}

	// The infos are re-derived in place, each row flagged if its info moved
	// (a commit cut short leaves them between two states: callers rebuild);
	// the flags are counted, then read into one exactly-sized ascending list.
	x.changed = zeroed(x.changed, len(x.infos))
	if err := x.derive(ctx, x.changed); err != nil {
		return nil, fmt.Errorf("mdb: committing group index: %w", err)
	}
	n := 0
	for _, c := range x.changed {
		if c {
			n++
		}
	}
	var dirty []int
	if n > 0 {
		dirty = make([]int, 0, n)
		for pos, c := range x.changed {
			if c {
				dirty = append(dirty, pos)
			}
		}
	}
	return dirty, nil
}

// set stores row pos's freshly derived info, flagging the row in changed
// (nil: no diff is being taken) if that is not the info it held.
func (x *GroupIndex) set(changed []bool, pos int32, info *GroupInfo) {
	if changed != nil && info.differs(&x.infos[pos]) {
		changed[pos] = true
	}
	x.infos[pos] = *info
}

// derive overwrites every row's GroupInfo from the aggregates of the last
// aggregate pass — the maybe-match null phase first (group extras and the
// null-bearing rows' own infos), then the rows of exact groups — flagging
// in changed, unless it is nil, the rows whose info moved.
func (x *GroupIndex) derive(ctx context.Context, changed []bool) error {
	x.extraCount = zeroed(x.extraCount, x.keys.n)
	x.extraWsum = zeroed(x.extraWsum, x.keys.n)
	if len(x.nullRows) > 0 {
		if err := x.nullPhase(ctx, changed); err != nil {
			return fmt.Errorf("null phase: %w", err)
		}
	}
	sens := x.sensitive()
	if sens {
		// A group's histogram is its members' plus its compatible null rows'.
		x.stats = zeroed(x.stats, x.keys.n)
		acc := x.newSensAcc()
		for g, c := range x.count {
			if c == 0 {
				continue
			}
			acc.addGroup(x, int32(g))
			if x.extraCount[g] > 0 {
				for _, code := range x.extraSens[x.extraOffs[g]:x.extraOffs[g+1]] {
					acc.add(code, 1)
				}
				for _, code := range x.allNullSens {
					acc.add(code, 1)
				}
			}
			x.stats[g] = acc.drain()
		}
	}
	return pool.RunWorkers(ctx, x.workers, len(x.infos), func(lo, hi int) error {
		for pos := lo; pos < hi; pos++ {
			g := x.rowGroup[pos]
			if g < 0 {
				continue // null-bearing row, filled by the null phase
			}
			freq, wsum := int(x.count[g]+x.extraCount[g]), x.wsum[g]+x.extraWsum[g]
			if sens {
				info := x.stats[g]
				info.Freq, info.WeightSum = freq, wsum
				x.set(changed, int32(pos), &info)
				continue
			}
			// Without the column the other fields are zero and stay zero:
			// the row costs what it did when an info was these two.
			info := &x.infos[pos]
			if changed != nil && (info.Freq != freq || info.WeightSum != wsum) {
				changed[pos] = true
			}
			info.Freq, info.WeightSum = freq, wsum
		}
		return nil
	})
}

// nullPhase is the maybe-match treatment of the null-bearing rows. A null
// row r is compatible with an exact group, or with another null row s, iff
// their codes agree on every position where both hold a constant. Its info
// is its own weight, then the compatible groups in fresh-scan group order
// (first member ascending), then the compatible null rows in ascending row
// order; each compatible group in turn gains r as an extra member, null rows
// taken in ascending order. Those orders are the floating-point accumulation
// orders of a row-order scan, and keeping them is what makes every
// WeightSum reproducible to the bit.
//
// Compatible null rows are found without testing pairs. The null rows are
// partitioned by null mask (which positions are null). For a target mask a,
// every null row s is bucketed by (mask of s, codes of s on the positions a
// holds constants at): a row r with mask a then matches exactly the rows of
// one bucket per mask b — the one keyed by r's codes on the positions both a
// and b hold — and the ascending merge of those buckets is its compatible
// null rows in row order. The work is one bucketing of the null rows per
// mask present plus the matches themselves, not null rows squared.
func (x *GroupIndex) nullPhase(ctx context.Context, changed []bool) error {
	w, nulls := x.w, x.nullRows
	if x.inv == nil {
		x.inv = make([][][]int32, w)
		for g := 0; g < x.keys.n; g++ {
			x.post(g)
		}
	}

	// A mask is the tuple holding all-ones where the row has a constant and
	// zero where it is null, so "codes on the positions a holds" is a
	// bitwise AND. byMask lists the null rows (as indexes into nulls, hence
	// ascending) of each mask.
	var masks tupleSet
	masks.reset(w)
	maskOf := make([]int32, len(nulls))
	weights := make([]float64, len(nulls))
	keep := make([]uint32, w)
	for ni, pos := range nulls {
		for j, c := range x.row(int(pos)) {
			keep[j] = 0
			if c != 0 {
				keep[j] = ^uint32(0)
			}
		}
		m, _ := masks.intern(keep)
		maskOf[ni] = int32(m)
		weights[ni] = x.d.Rows[pos].Weight
	}
	maskOffs, byMask := bucketLists(maskOf, masks.n, nil, nil)

	// An all-null row is compatible with every live group; that list is
	// built once and shared.
	allNull := int32(masks.find(make([]uint32, w)))
	var allLive []int32
	if allNull >= 0 {
		for g, c := range x.count {
			if c > 0 {
				allLive = append(allLive, int32(g))
			}
		}
		x.sortByFirst(allLive)
	}

	compat := make([][]int32, len(nulls))
	err := pool.RunWorkers(ctx, x.workers, len(nulls), func(lo, hi int) error {
		var buf []int32
		for ni := lo; ni < hi; ni++ {
			if maskOf[ni] == allNull {
				compat[ni] = allLive
				continue
			}
			buf = x.compatibleGroups(x.row(int(nulls[ni])), buf[:0])
			compat[ni] = slices.Clone(buf)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Extras accumulate per group over null rows in ascending row order.
	for ni, gs := range compat {
		for _, g := range gs {
			x.extraCount[g]++
			x.extraWsum[g] += weights[ni]
		}
	}
	sens := x.sensitive()
	if sens {
		// The same extras' sensitive codes, laid out by group — but for the
		// all-null rows', which every live group has and which are therefore
		// kept once, as their list of groups is.
		x.allNullSens = x.allNullSens[:0]
		x.extraOffs = zeroed(x.extraOffs, x.keys.n+1)
		for ni, gs := range compat {
			if maskOf[ni] == allNull {
				x.allNullSens = append(x.allNullSens, x.sensCode(int(nulls[ni])))
				continue
			}
			for _, g := range gs {
				x.extraOffs[g+1]++
			}
		}
		for g := 0; g < x.keys.n; g++ {
			x.extraOffs[g+1] += x.extraOffs[g]
		}
		x.extraSens = zeroed(x.extraSens, int(x.extraOffs[x.keys.n]))
		next := slices.Clone(x.extraOffs)
		for ni, gs := range compat {
			if maskOf[ni] == allNull {
				continue
			}
			c := x.sensCode(int(nulls[ni]))
			for _, g := range gs {
				x.extraSens[next[g]] = c
				next[g]++
			}
		}
	}

	// Targets are independent per mask; each worker buckets into its own
	// scratch and writes only the infos of its masks' rows.
	return pool.RunWorkers(ctx, x.workers, masks.n, func(lo, hi int) error {
		var (
			buckets  tupleSet
			bucketOf = make([]int32, len(nulls))
			offs     []int32
			members  []int32
			merge    = listMerger{bits: make([]uint64, (len(nulls)+63)/64)}
			key      = make([]uint32, w+1)
			acc      *sensAcc
			info     GroupInfo
		)
		if sens {
			acc = x.newSensAcc()
		}
		for a := lo; a < hi; a++ {
			keepA := masks.key(a)
			buckets.reset(w + 1)
			for ni, pos := range nulls {
				key[0] = uint32(maskOf[ni])
				for j, c := range x.row(int(pos)) {
					key[1+j] = c & keepA[j]
				}
				b, _ := buckets.intern(key)
				bucketOf[ni] = int32(b)
			}
			offs, members = bucketLists(bucketOf, buckets.n, offs, members)

			// A row of mask a is bucketed here by its whole pattern, so its
			// own bucket lists its duplicates: they match the same null
			// rows, and the merge is done once per pattern.
			for _, first := range byMask[maskOffs[a]:maskOffs[a+1]] {
				own := bucketOf[first]
				same := members[offs[own]:offs[own+1]]
				if same[0] != first {
					continue // pattern handled at its first row
				}
				cells := x.row(int(nulls[first]))
				merge.lists = merge.lists[:0]
				for b := 0; b < masks.n; b++ {
					key[0] = uint32(b)
					keepB := masks.key(b)
					for j, c := range cells {
						key[1+j] = c & keepB[j]
					}
					if id := buckets.find(key); id >= 0 {
						merge.lists = append(merge.lists, members[offs[id]:offs[id+1]])
					}
				}
				matches := merge.merged()
				if sens {
					// Rows of one pattern are compatible with the same rows:
					// the matches, the row itself among them, and the
					// members of its compatible groups.
					for _, g := range compat[first] {
						acc.addGroup(x, g)
					}
					for _, nj := range matches {
						acc.add(x.sensCode(int(nulls[nj])), 1)
					}
					info = acc.drain()
				}
				for _, ni := range same {
					freq := 1
					wsum := weights[ni]
					for _, g := range compat[ni] {
						freq += int(x.count[g])
						wsum += x.wsum[g]
					}
					for _, nj := range matches {
						if nj != ni {
							freq++
							wsum += weights[nj]
						}
					}
					info.Freq, info.WeightSum = freq, wsum
					x.set(changed, nulls[ni], &info)
				}
			}
		}
		return nil
	})
}

// listMerger merges disjoint ascending lists of indexes below 64·len(bits)
// into one ascending list: members are marked in a bitmap and read back in
// order, so a merge costs its output plus one pass over the bitmap words,
// whatever the number of lists.
type listMerger struct {
	bits  []uint64
	lists [][]int32
	out   []int32
}

// merged returns the merge of m.lists, valid until the next call.
func (m *listMerger) merged() []int32 {
	if len(m.lists) == 1 {
		return m.lists[0]
	}
	for _, list := range m.lists {
		for _, i := range list {
			m.bits[i>>6] |= 1 << (i & 63)
		}
	}
	m.out = m.out[:0]
	for wi, word := range m.bits {
		for ; word != 0; word &= word - 1 {
			m.out = append(m.out, int32(wi<<6|bits.TrailingZeros64(word)))
		}
		m.bits[wi] = 0
	}
	return m.out
}

// bucketLists groups the indexes 0..len(bucketOf)-1 by bucket: the members
// of bucket b are members[offs[b]:offs[b+1]], ascending; an index whose
// bucket is negative is in none. offs and members are reused when large
// enough.
func bucketLists(bucketOf []int32, buckets int, offs, members []int32) ([]int32, []int32) {
	offs = zeroed(offs, buckets+1)
	for _, b := range bucketOf {
		if b >= 0 {
			offs[b+1]++
		}
	}
	for b := 0; b < buckets; b++ {
		offs[b+1] += offs[b]
	}
	members = zeroed(members, int(offs[buckets]))
	for i, b := range bucketOf {
		if b >= 0 {
			members[offs[b]] = int32(i)
			offs[b]++
		}
	}
	// The fill advanced every offs[b] to the end of bucket b; shift back.
	copy(offs[1:], offs[:buckets])
	offs[0] = 0
	return offs, members
}

// sortByFirst orders groups by first member position — the group order of a
// fresh scan over the current dataset.
func (x *GroupIndex) sortByFirst(gs []int32) {
	slices.SortFunc(gs, func(a, b int32) int { return cmp.Compare(x.first[a], x.first[b]) })
}

// compatibleGroups appends to buf the live groups a null-bearing row with
// the given codes — at least one of them a constant — may match under
// maybe-match, in fresh-scan group order. Candidates come from the shortest
// inverted-index posting among the row's constant positions and are
// verified in full.
func (x *GroupIndex) compatibleGroups(cells []uint32, buf []int32) []int32 {
	var cands []int32
	picked := false
	for j, c := range cells {
		if c == 0 {
			continue
		}
		var post []int32
		if int(c) < len(x.inv[j]) {
			post = x.inv[j][c]
		}
		if !picked || len(post) < len(cands) {
			picked, cands = true, post
		}
	}
	for _, g := range cands {
		if x.count[g] == 0 {
			continue
		}
		key := x.keys.key(int(g))
		ok := true
		for j, c := range cells {
			if c != 0 && key[j] != c {
				ok = false
				break
			}
		}
		if ok {
			buf = append(buf, g)
		}
	}
	x.sortByFirst(buf)
	return buf
}
