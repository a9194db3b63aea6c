package risk_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"runtime"
	"strings"
	"testing"

	"vadasa/internal/dist"
	"vadasa/internal/govern"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// Every test in this file ranges over every row of the measure table: a
// measure added to the table is covered by adding its row.

// tableMeasure instantiates a table row at its default parameters, with the
// sensitive attribute of tableDataset named for the rows that need one.
func tableMeasure(t *testing.T, kind string, override map[string]string) risk.Assessor {
	t.Helper()
	sp, err := risk.ParseSpec(func(key string) string {
		if v, ok := override[key]; ok {
			return v
		}
		return map[string]string{"measure": kind, "sensitive": "S"}[key]
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sp.Measure()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tableDataset builds a random weighted dataset over three small-domain
// quasi-identifiers and a sensitive attribute, about one QI cell in eight a
// labelled null. Weights are fractional, so a float summation-order mistake
// anywhere surfaces as a bitwise mismatch instead of hiding behind integers.
// In the sensQI variant the sensitive attribute is itself a quasi-identifier
// — the CLI's `-sensitive ResidentialRevenue` — so its cells too are null
// one time in eight and the tapes suppress them.
type tableDataset struct {
	*mdb.Dataset
	rng       *rand.Rand
	nextID    int
	qis       int // the leading attributes that are quasi-identifiers
	nullOneIn int // 0: rows are appended null-free
}

// tableVariants are the two schemas every table test runs.
var tableVariants = []bool{false, true}

func newTableDataset(rng *rand.Rand, rows int, sensQI bool) *tableDataset {
	d := &tableDataset{rng: rng, qis: 3, nullOneIn: 8, Dataset: mdb.NewDataset("rand", []mdb.Attribute{
		{Name: "A", Category: mdb.QuasiIdentifier},
		{Name: "B", Category: mdb.QuasiIdentifier},
		{Name: "C", Category: mdb.QuasiIdentifier},
		{Name: "S", Category: mdb.NonIdentifying},
		{Name: "W", Category: mdb.Weight},
	})}
	if sensQI {
		d.qis, d.Attrs[3].Category = 4, mdb.QuasiIdentifier
	}
	for r := 0; r < rows; r++ {
		d.appendRow()
	}
	return d
}

func (d *tableDataset) appendRow() {
	vals := make([]mdb.Value, 5)
	for i := 0; i < 4; i++ {
		first := 'a'
		if i == 3 {
			first = 'p'
		}
		if i < d.qis && d.nullOneIn > 0 && d.rng.Intn(d.nullOneIn) == 0 {
			vals[i] = d.Nulls.Fresh()
		} else {
			vals[i] = mdb.Const(string(first + rune(d.rng.Intn(3))))
		}
	}
	vals[4] = mdb.Const("w")
	d.nextID++
	d.Append(&mdb.Row{ID: d.nextID, Values: vals, Weight: 1 + d.rng.Float64()*4})
}

// suppress nulls one random constant QI cell and returns where, ok false if
// the cell it drew was null already.
func (d *tableDataset) suppress() (pos, attr int, ok bool) {
	pos, attr = d.rng.Intn(len(d.Rows)), d.rng.Intn(d.qis)
	if d.Rows[pos].Values[attr].IsNull() {
		return 0, 0, false
	}
	d.Rows[pos].Values[attr] = d.Nulls.Fresh()
	return pos, attr, true
}

// remove deletes up to n random rows and returns their former positions,
// strictly ascending.
func (d *tableDataset) remove(n int) []int {
	picked := make(map[int]bool)
	for i := 0; i < n && len(picked) < len(d.Rows)-10; i++ {
		picked[d.rng.Intn(len(d.Rows))] = true
	}
	var positions []int
	for pos := range d.Rows {
		if picked[pos] {
			positions = append(positions, pos)
		}
	}
	d.Rows = mdb.RemovePositions(d.Rows, positions)
	return positions
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d: got %v, want %v (bitwise mismatch)", label, i, got[i], want[i])
		}
	}
}

func assess(t *testing.T, m risk.Assessor, d *mdb.Dataset, sem mdb.Semantics) []float64 {
	t.Helper()
	want, err := risk.AssessContext(context.Background(), m, d, sem)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// remoteScore runs the shard worker's half over the index's current infos:
// the measure's wire spec and the rows dist.Assessor.Rescore would send,
// both through JSON, then dist.MeasureSpec.Score.
func remoteScore(t *testing.T, m risk.Assessor, idx *mdb.GroupIndex) ([]float64, error) {
	t.Helper()
	spec, ok := dist.SpecFor(m)
	if !ok {
		t.Fatalf("%s is a group measure but not distributable", m.Name())
	}
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back dist.MeasureSpec
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if wire, err = json.Marshal(dist.TaskRows(idx, nil)); err != nil {
		t.Fatal(err)
	}
	var rows []dist.TaskRow
	if err := json.Unmarshal(wire, &rows); err != nil {
		t.Fatal(err)
	}
	return back.Score(rows)
}

// One property, every path: for every measure of the table, under both null
// semantics, on null-bearing random data and through random suppress /
// append / delete sequences, every way of obtaining the risk vector lands on
// the same bits — AssessContext, the measure rebuilt from its spec through
// JSON and, for the group measures, Rescore with no previous vector, the
// dirty-only Rescore and the remote scoring of the same infos.
func TestEveryPathSameBits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, kind := range risk.Kinds() {
		for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
			t.Run(fmt.Sprintf("%s/%s", kind, sem), func(t *testing.T) {
				for _, sensQI := range tableVariants {
					rng := rand.New(rand.NewSource(int64(len(kind)) + int64(sem)))
					everyPathSameBits(t, rng, kind, sem, newTableDataset(rng, 80+rng.Intn(120), sensQI))
				}
			})
		}
	}
}

func everyPathSameBits(t *testing.T, rng *rand.Rand, kind string, sem mdb.Semantics, d *tableDataset) {
	ctx := context.Background()
	m := tableMeasure(t, kind, nil)

	sp, ok := risk.SpecOf(m)
	if !ok || sp.Kind != kind {
		t.Fatalf("SpecOf(%s) = %+v, %v", m.Name(), sp, ok)
	}
	wire, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back risk.Spec
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := back.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Name() != m.Name() {
		t.Fatalf("spec round trip built %s from %s", rebuilt.Name(), m.Name())
	}
	sameBits(t, "spec round trip", assess(t, rebuilt, d.Dataset, sem), assess(t, m, d.Dataset, sem))

	ia, ok := m.(risk.IncrementalAssessor)
	if !ok {
		// SUDA's score is no function of one grouping; every other row is.
		if _, ships := dist.SpecFor(m); ships || kind != "suda" {
			t.Fatalf("%s has no incremental path (ships over the wire: %v)", kind, ships)
		}
		return
	}
	by, err := ia.Grouping(d.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := mdb.BuildIndex(ctx, d.Dataset, by, sem)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := ia.Rescore(ctx, idx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "Rescore(nil prev)", prev, assess(t, m, d.Dataset, sem))
	for batch := 0; batch < 6; batch++ {
		for op := 0; op < 1+rng.Intn(6); op++ {
			switch rng.Intn(4) {
			case 0:
				positions := d.remove(1 + rng.Intn(4))
				if err := idx.DeleteRows(positions); err != nil {
					t.Fatal(err)
				}
				prev = mdb.RemovePositions(prev, positions)
			case 1:
				d.appendRow()
				if err := idx.AppendRow(len(d.Rows) - 1); err != nil {
					t.Fatal(err)
				}
				prev = append(prev, 0)
			default:
				if pos, attr, ok := d.suppress(); ok {
					if err := idx.SuppressCell(pos, attr); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		dirty, err := idx.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prev, err = ia.Rescore(ctx, idx, dirty, prev); err != nil {
			t.Fatal(err)
		}
		want := assess(t, m, d.Dataset, sem)
		sameBits(t, "dirty-only Rescore", prev, want)
		remote, err := remoteScore(t, m, idx)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "dist.MeasureSpec.Score", remote, want)
	}
}

// An error is the same text whichever path raises it: a parameter error
// (K < 2) and two data errors (a group whose weights sum to nothing,
// reported for the lowest failing row; a sensitive column holding no
// constant).
func TestEveryPathSameError(t *testing.T) {
	ctx := context.Background()
	raised := make(map[string]int) // case → measures that raise it on several paths
	defer func() {
		for _, name := range []string{"weightless group", "K < 2", "no sensitive constant"} {
			if raised[name] == 0 {
				t.Errorf("%s: no measure of the table raises it on more than one path", name)
			}
		}
	}()
	for _, kind := range risk.Kinds() {
		t.Run(kind, func(t *testing.T) {
			for _, sensQI := range tableVariants {
				d := newTableDataset(rand.New(rand.NewSource(131)), 60, sensQI)
				// Two singleton groups without weight: no sibling rescues their
				// sums, and the lower row must be the one every path names.
				for _, pos := range []int{17, 41} {
					for attr := 0; attr < 3; attr++ {
						d.Rows[pos].Values[attr] = mdb.Const(fmt.Sprintf("z%d", pos))
					}
					d.Rows[pos].Weight = 0
				}
				suppressed := newTableDataset(rand.New(rand.NewSource(131)), 60, sensQI)
				for _, r := range suppressed.Rows {
					r.Values[3] = suppressed.Nulls.Fresh()
				}
				for _, c := range []struct {
					name string
					m    risk.Assessor
					d    *mdb.Dataset
				}{
					{"weightless group", tableMeasure(t, kind, nil), d.Dataset},
					{"K < 2", tableMeasure(t, kind, map[string]string{"k": "1"}), d.Dataset},
					{"no sensitive constant", tableMeasure(t, kind, nil), suppressed.Dataset},
				} {
					_, wantErr := risk.AssessContext(ctx, c.m, c.d, mdb.MaybeMatch)
					ia, ok := c.m.(risk.IncrementalAssessor)
					if !ok || wantErr == nil {
						continue // one path only, or a measure that reads none of the three
					}
					raised[c.name]++
					// The index the kind asks for at parameters it accepts.
					by, err := tableMeasure(t, kind, nil).(risk.IncrementalAssessor).Grouping(c.d)
					if err != nil {
						t.Fatal(err)
					}
					idx, err := mdb.BuildIndex(ctx, c.d, by, mdb.MaybeMatch)
					if err != nil {
						t.Fatal(err)
					}
					all := make([]int, len(c.d.Rows))
					for i := range all {
						all[i] = i
					}
					_, full := ia.Rescore(ctx, idx, nil, nil)
					_, dirty := ia.Rescore(ctx, idx, all, make([]float64, len(c.d.Rows)))
					_, remote := remoteScore(t, c.m, idx)
					view := risk.NewLive(c.m, c.d, mdb.MaybeMatch, nil)
					_, live := view.Risks(ctx)
					for path, err := range map[string]error{"Rescore(nil prev)": full, "dirty Rescore": dirty, "dist Score": remote, "Live": live} {
						if err == nil || err.Error() != wantErr.Error() {
							t.Errorf("%s: %s failed with %v, AssessContext with %v", c.name, path, err, wantErr)
						}
					}
				}
			}
		})
	}
}

// stepLive checks the view against a fresh one-shot assessment of the dataset
// as it stands.
func stepLive(t *testing.T, label string, view *risk.Live, m risk.Assessor, d *mdb.Dataset, sem mdb.Semantics) {
	t.Helper()
	if view.Current() != nil && view.Behind() > 0 {
		t.Fatalf("%s: vector reported current %d deltas behind", label, view.Behind())
	}
	got, err := view.Risks(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameBits(t, label, got, assess(t, m, d, sem))
	if view.Behind() != 0 || view.Current() == nil {
		t.Fatalf("%s: view not current after Risks (behind %d)", label, view.Behind())
	}
}

// The view over a cycle-shaped tape (batches of suppressions, then a recoding
// that can only invalidate) and over a stream-shaped tape (append, withdraw,
// suppress, close and reopen) equals a fresh assessment after every step, for
// every measure — indexed or one-shot — under both semantics, and hands the
// governor back exactly what it took.
func TestLiveTapesMatchFreshAssessment(t *testing.T) {
	for _, kind := range risk.Kinds() {
		for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
			t.Run(fmt.Sprintf("%s/%s", kind, sem), func(t *testing.T) {
				for _, sensQI := range tableVariants {
					liveTapes(t, kind, sem, sensQI)
				}
			})
		}
	}
}

func liveTapes(t *testing.T, kind string, sem mdb.Semantics, sensQI bool) {
	rng := rand.New(rand.NewSource(int64(len(kind))*7 + int64(sem)))
	m := tableMeasure(t, kind, nil)
	gov := govern.New("tape", govern.Limits{})
	gov.ReserveBytes(1000) // someone else's charge
	defer gov.ReleaseBytes(1000)

	d := newTableDataset(rng, 120, sensQI)
	view := risk.NewLive(m, d.Dataset, sem, gov)
	stepLive(t, "cycle/first", view, m, d.Dataset, sem)
	for iter := 0; iter < 4; iter++ {
		for i := 0; i < 5; i++ {
			if pos, attr, ok := d.suppress(); ok {
				if err := view.Suppressed(pos, attr); err != nil {
					t.Fatal(err)
				}
			}
		}
		stepLive(t, "cycle/suppress", view, m, d.Dataset, sem)
	}
	for _, r := range d.Rows { // global recoding: a → a*, no delta form
		if r.Values[0] == mdb.Const("a") {
			r.Values[0] = mdb.Const("a*")
		}
	}
	view.Invalidate()
	stepLive(t, "cycle/recode", view, m, d.Dataset, sem)
	if pos, attr, ok := d.suppress(); ok {
		if err := view.Suppressed(pos, attr); err != nil {
			t.Fatal(err)
		}
	}
	stepLive(t, "cycle/suppress after rebuild", view, m, d.Dataset, sem)
	if m, _ := m.(risk.IncrementalAssessor); (m != nil) != view.Incremental() {
		t.Fatalf("Incremental() = %v for %s", view.Incremental(), kind)
	}
	if used := gov.Used(); view.Incremental() == (used == 1000) {
		t.Fatalf("governor holds %d bytes with an incremental=%v view built", used, view.Incremental())
	}
	view.Close()
	if used := gov.Used(); used != 1000 {
		t.Fatalf("governor holds %d bytes after Close, want the 1000 it started with", used)
	}

	d = newTableDataset(rng, 40, sensQI)
	view = risk.NewLive(m, d.Dataset, sem, gov)
	for step := 0; step < 12; step++ {
		switch step % 4 {
		case 0, 1:
			for i := 0; i < 1+rng.Intn(20); i++ {
				d.appendRow()
			}
			if err := view.Appended(); err != nil {
				t.Fatal(err)
			}
		case 2:
			if err := view.Deleted(d.remove(1 + rng.Intn(12))); err != nil {
				t.Fatal(err)
			}
		case 3:
			for i := 0; i < 6; i++ {
				if pos, attr, ok := d.suppress(); ok {
					if err := view.Suppressed(pos, attr); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if step == 1 {
			continue // two batches between looks: deltas pile up
		}
		stepLive(t, fmt.Sprintf("stream/step %d", step), view, m, d.Dataset, sem)
		if step == 7 { // reopen: a new view over the window as it stands
			view.Close()
			view = risk.NewLive(m, d.Dataset, sem, gov)
		}
	}
	view.Close()
	if used := gov.Used(); used != 1000 {
		t.Fatalf("governor holds %d bytes after the stream tape, want 1000", used)
	}

}

// A refused reservation is the governor's typed error, leaves the view
// usable, and a later Risks succeeds once the budget is there; what to do in
// between is the caller's business — such as switching indexing off, which
// scores the same measure without asking the governor for anything.
func TestLiveRefusedReservation(t *testing.T) {
	ctx := context.Background()
	for _, kind := range risk.Kinds() {
		t.Run(kind, func(t *testing.T) {
			m := tableMeasure(t, kind, nil)
			d := newTableDataset(rand.New(rand.NewSource(17)), 90, true)
			gov := govern.New("tight", govern.Limits{MaxBytes: 1 << 20})
			if err := gov.ReserveBytes(1<<20 - 1); err != nil {
				t.Fatal(err)
			}
			view := risk.NewLive(m, d.Dataset, mdb.MaybeMatch, gov)
			defer view.Close()
			_, err := view.Risks(ctx)
			if !view.Incremental() {
				if err != nil {
					t.Fatalf("a one-shot view reserves nothing, yet: %v", err)
				}
				return
			}
			var refused *govern.ErrBudgetExceeded
			if !errors.As(err, &refused) {
				t.Fatalf("Risks under a full budget: %v, want ErrBudgetExceeded", err)
			}
			if view.Current() != nil {
				t.Fatal("a refused view reports a current vector")
			}
			if pos, attr, ok := d.suppress(); ok {
				if err := view.Suppressed(pos, attr); err != nil {
					t.Fatalf("delta on a refused view: %v", err)
				}
			}
			view.SetIndexing(false)
			if view.Incremental() {
				t.Fatal("indexing is off, yet the view reports an index")
			}
			stepLive(t, "one-shot under a full budget", view, m, d.Dataset, mdb.MaybeMatch)
			gov.ReleaseBytes(1<<20 - 1)
			view.SetIndexing(true)
			if pos, attr, ok := d.suppress(); ok {
				if err := view.Suppressed(pos, attr); err != nil {
					t.Fatal(err)
				}
			}
			stepLive(t, "after the budget cleared", view, m, d.Dataset, mdb.MaybeMatch)
			if gov.Used() == 0 {
				t.Fatal("the built view holds no reservation")
			}
		})
	}
}

// Two metamorphic properties of a risk measure (ROADMAP item 4b), for every
// row of the table under both semantics: the scores follow their rows through
// a permutation of the table, and do not move when the attribute columns are
// reordered and renamed. Weights are whole numbers here, so that a weight sum
// is the same bits in any order — what is under test is the measure, not
// float addition.
func TestScoresFollowRowsAndIgnoreColumnOrder(t *testing.T) {
	for _, kind := range risk.Kinds() {
		for _, sem := range []mdb.Semantics{mdb.MaybeMatch, mdb.StandardNulls} {
			t.Run(fmt.Sprintf("%s/%s", kind, sem), func(t *testing.T) {
				for _, sensQI := range tableVariants {
					rng := rand.New(rand.NewSource(int64(len(kind))*11 + int64(sem)))
					d := newTableDataset(rng, 150, sensQI)
					for _, r := range d.Rows {
						r.Weight = float64(1 + rng.Intn(5))
					}
					m := tableMeasure(t, kind, nil)
					base := assess(t, m, d.Dataset, sem)

					rows := rng.Perm(len(d.Rows))
					shuffled := mdb.NewDataset("rand", d.Attrs)
					followed := make([]float64, len(rows))
					for to, from := range rows {
						shuffled.Append(d.Rows[from])
						followed[to] = base[from]
					}
					sameBits(t, "rows permuted", assess(t, m, shuffled, sem), followed)

					cols := rng.Perm(len(d.Attrs))
					attrs := make([]mdb.Attribute, len(cols))
					for to, from := range cols {
						attrs[to] = d.Attrs[from]
						attrs[to].Name = "renamed " + attrs[to].Name
					}
					moved := mdb.NewDataset("rand", attrs)
					for _, r := range d.Rows {
						vals := make([]mdb.Value, len(cols))
						for to, from := range cols {
							vals[to] = r.Values[from]
						}
						moved.Append(&mdb.Row{ID: r.ID, Values: vals, Weight: r.Weight})
					}
					renamed := tableMeasure(t, kind, map[string]string{"sensitive": "renamed S"})
					sameBits(t, "columns reordered and renamed", assess(t, renamed, moved, sem), base)
				}
			})
		}
	}
}

// parseCase is one row of testdata/parsespec.json, the golden table of what
// client parameters select: the risk layer, the daemon (query strings) and the
// CLI (flags) each run every row and must all answer it the same way.
type parseCase struct {
	Params string `json:"params"` // query-string form
	Name   string `json:"name"`   // the measure's Name, or
	Error  string `json:"error"`  // the error's text
}

func TestParseSpecGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/parsespec.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []parseCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, c := range cases {
		q, err := url.ParseQuery(c.Params)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		sp, err := risk.ParseSpec(q.Get)
		if err == nil {
			var m risk.Assessor
			if m, err = sp.Measure(); err == nil {
				got = m.Name()
				seen[sp.Kind] = true
			}
		}
		if got != c.Name || (err != nil) != (c.Error != "") || (err != nil && err.Error() != c.Error) {
			t.Errorf("%q: measure %q, error %v; want %q, %q", c.Params, got, err, c.Name, c.Error)
		}
	}
	for _, kind := range risk.Kinds() {
		if !seen[kind] {
			t.Errorf("the golden table never selects %s", kind)
		}
	}
}

// readsParam reports whether the table row of kind reads the parameter key:
// whether some other value of it changes the spec of the measure built.
func readsParam(t *testing.T, kind, key string) bool {
	t.Helper()
	base, _ := risk.SpecOf(tableMeasure(t, kind, nil))
	for _, v := range []string{"7", "0.7", "ratio", "other"} {
		sp, err := risk.ParseSpec(func(k string) string {
			return map[string]string{"measure": kind, "sensitive": "S", key: v}[k]
		})
		if err != nil {
			continue
		}
		if m, err := sp.Measure(); err == nil {
			if got, _ := risk.SpecOf(m); got != base {
				return true
			}
		}
	}
	return false
}

// measureDocs renders what the measure table says about each kind: the
// parameters it reads with their defaults, whether it is maintained
// incrementally and whether it ships to shard workers.
func measureDocs(t *testing.T) [][4]string {
	t.Helper()
	yesNo := map[bool]string{true: "yes", false: "no"}
	var rows [][4]string
	for _, kind := range risk.Kinds() {
		var params []string
		for _, p := range risk.Params[1:] {
			if !readsParam(t, kind, p.Key) {
				continue
			}
			def := p.Default
			if def == "" {
				def = "required"
			}
			params = append(params, fmt.Sprintf("`%s` (%s)", p.Key, def))
		}
		if len(params) == 0 {
			params = []string{"—"}
		}
		m := tableMeasure(t, kind, nil)
		_, incremental := m.(risk.IncrementalAssessor)
		_, distributable := dist.SpecFor(m)
		rows = append(rows, [4]string{"`" + kind + "`", strings.Join(params, ", "), yesNo[incremental], yesNo[distributable]})
	}
	return rows
}

// README's measure and parameter reference is generated from the measure
// table (paste the "want" of a failure back in), and every row of DESIGN.md's
// "Risk layer" table agrees with it on parameters, incremental and
// distributable.
func TestDocsMatchMeasureTable(t *testing.T) {
	var want strings.Builder
	want.WriteString("| `measure` | parameters (default) | incremental | sharded |\n|---|---|---|---|\n")
	for _, r := range measureDocs(t) {
		fmt.Fprintf(&want, "| %s | %s | %s | %s |\n", r[0], r[1], r[2], r[3])
	}
	want.WriteString("\n")
	for _, p := range risk.Params {
		def := "default `" + p.Default + "`"
		if p.Default == "" {
			def = "no default"
		}
		fmt.Fprintf(&want, "- `%s` (%s): %s\n", p.Key, def, p.Usage)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- measure table: begin -->\n", "<!-- measure table: end -->"
	_, rest, ok := strings.Cut(string(readme), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("README.md has no %s…%s block", strings.TrimSpace(begin), end)
	}
	if got != want.String() {
		t.Errorf("README.md's measure table is out of date; want:\n%s\ngot:\n%s", want.String(), got)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range measureDocs(t) {
		var cells []string
		// The first such row: the twin table further down leads its rows
		// with the same kinds.
		for _, line := range strings.Split(string(design), "\n") {
			if cells == nil && strings.HasPrefix(line, "| "+r[0]+" |") {
				cells = strings.Split(strings.TrimSuffix(line, " |"), " | ")
			}
		}
		if len(cells) < 4 {
			t.Errorf("DESIGN.md's Risk layer table has no row for %s", r[0])
			continue
		}
		for _, param := range strings.Split(r[1], ", ") {
			if key, _, _ := strings.Cut(param, " "); !strings.Contains(cells[1], key) {
				t.Errorf("DESIGN.md: %s row does not list parameter %s", r[0], key)
			}
		}
		if cells[2] != r[2] || cells[3] != r[3] {
			t.Errorf("DESIGN.md: %s row says incremental %s, distributable %s; the table says %s, %s",
				r[0], cells[2], cells[3], r[2], r[3])
		}
	}
}
