package dist

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vadasa/internal/mdb"
	"vadasa/internal/risk"
)

// testRows builds a deterministic synthetic shard workload: group
// aggregates with fractional weights, so any float mishandling on the wire
// or in the merge shows up as a bitwise mismatch, and the sensitive counts
// of a 1 000-row table, a few groups without a sensitive constant.
func testRows(rng *rand.Rand, n int) []TaskRow {
	rows := make([]TaskRow, n)
	for i := range rows {
		f := 1 + rng.Intn(6)
		count := int32(rng.Intn(f + 1))
		rows[i] = TaskRow{
			Pos:       i,
			ID:        i + 1,
			Freq:      f,
			WeightSum: float64(f) * (1 + rng.Float64()*4),
			Distinct:  int32(1 + rng.Intn(f)),
			SensCount: count,
			SensTotal: 1000,
			SensDist:  rng.Int63n(2*int64(count)*1000 + 1),
		}
	}
	return rows
}

func testSpecs() []MeasureSpec {
	return []MeasureSpec{
		{Kind: "k-anonymity", K: 3},
		{Kind: "re-identification"},
		{Kind: "individual-risk", Estimator: risk.MonteCarlo, Samples: 40, Seed: 7},
		{Kind: "l-diversity", K: 2, Sensitive: "S"},
		{Kind: "t-closeness", T: 0.3, Sensitive: "S"},
	}
}

// Whatever the kernel puts into a GroupInfo reaches the worker: TaskRow has
// a field of the same name and type for each of mdb.GroupInfo's, and the
// infos of an index that fills them all come back equal from TaskRows, JSON
// and info.
func TestTaskRowCarriesEveryGroupInfoField(t *testing.T) {
	wire := reflect.TypeOf(TaskRow{})
	info := reflect.TypeOf(mdb.GroupInfo{})
	for i := 0; i < info.NumField(); i++ {
		f := info.Field(i)
		if w, ok := wire.FieldByName(f.Name); !ok || w.Type != f.Type {
			t.Errorf("mdb.GroupInfo.%s (%s) has no counterpart in dist.TaskRow", f.Name, f.Type)
		}
	}

	d := incrTestDataset(rand.New(rand.NewSource(3)), 60, 3, 3)
	qi := d.QuasiIdentifiers()
	idx, err := mdb.BuildIndex(context.Background(), d, mdb.Grouping{Attrs: qi[1:], Sensitive: qi[0]}, mdb.MaybeMatch)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(TaskRows(idx, nil))
	if err != nil {
		t.Fatal(err)
	}
	var back []TaskRow
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	filled := make([]bool, info.NumField())
	for pos, g := range idx.Infos() {
		if back[pos].Pos != pos || back[pos].ID != d.Rows[pos].ID || back[pos].info() != g {
			t.Fatalf("row %d: %+v crossed the wire as %+v", pos, g, back[pos])
		}
		for i := range filled {
			filled[i] = filled[i] || !reflect.ValueOf(g).Field(i).IsZero()
		}
	}
	for i, ok := range filled {
		if !ok {
			t.Errorf("no info of the test index sets %s: the round trip proves nothing about it", info.Field(i).Name)
		}
	}
}

// httpWorker starts an in-process worker over httptest and returns a
// transport addressing it.
func httpWorker(t *testing.T, opts WorkerOptions) *HTTPTransport {
	t.Helper()
	srv := httptest.NewServer(WorkerHandler(opts))
	t.Cleanup(srv.Close)
	return NewHTTPTransport(strings.TrimPrefix(srv.URL, "http://"), nil)
}

// incrTestDataset mirrors the risk package's incremental-test dataset:
// random QI values and fractional weights, so float mishandling anywhere in
// the distributed path surfaces as a bitwise mismatch.
func incrTestDataset(rng *rand.Rand, rows, qis, domain int) *mdb.Dataset {
	attrs := make([]mdb.Attribute, qis+1)
	for i := 0; i < qis; i++ {
		attrs[i] = mdb.Attribute{Name: string(rune('A' + i)), Category: mdb.QuasiIdentifier}
	}
	attrs[qis] = mdb.Attribute{Name: "W", Category: mdb.Weight}
	d := mdb.NewDataset("rand", attrs)
	for r := 0; r < rows; r++ {
		vals := make([]mdb.Value, qis+1)
		for i := 0; i < qis; i++ {
			vals[i] = mdb.Const(string(rune('a' + rng.Intn(domain))))
		}
		vals[qis] = mdb.Const("w")
		d.Append(&mdb.Row{ID: r + 1, Values: vals, Weight: 1 + rng.Float64()*4})
	}
	return d
}

func assertSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x (%g vs %g)",
				name, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

// Property: SpecFor round-trips every distributable measure, and
// MeasureSpec.Score lands on the same bits as the measure's own ScoreGroup.
func TestSpecForRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := testRows(rng, 300)
	for _, m := range []risk.IncrementalAssessor{
		risk.KAnonymity{K: 3},
		risk.ReIdentification{},
		risk.IndividualRisk{Estimator: risk.MonteCarlo, Samples: 40, Seed: 7},
		risk.IndividualRisk{Estimator: risk.PosteriorSeries},
		risk.LDiversity{L: 3, Sensitive: "S"},
		risk.TCloseness{T: 0.2, Sensitive: "S"},
	} {
		spec, ok := SpecFor(m)
		if !ok {
			t.Fatalf("SpecFor(%s) not distributable", m.Name())
		}
		got, err := spec.Score(rows)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(rows))
		scorer := m.(risk.GroupScorer)
		for i, r := range rows {
			want[i], err = scorer.ScoreGroup(r.info(), r.ID)
			if err != nil {
				t.Fatal(err)
			}
		}
		assertSameBits(t, m.Name(), got, want)
	}
	if _, ok := SpecFor(risk.SUDA{Threshold: 3}); ok {
		t.Fatal("SUDA must not be distributable")
	}
}

func TestScoreErrorIdentity(t *testing.T) {
	rows := []TaskRow{
		{Pos: 0, ID: 10, Freq: 2, WeightSum: 3.5},
		{Pos: 1, ID: 11, Freq: 1, WeightSum: -2},
		{Pos: 2, ID: 12, Freq: 1, WeightSum: 0},
	}
	_, err := MeasureSpec{Kind: "re-identification"}.Score(rows)
	want := "risk: row 11 has non-positive group weight -2"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if _, err := (MeasureSpec{Kind: "bogus"}).Score(rows); err == nil {
		t.Fatal("unknown kind must error")
	}
}

// funcTransport is a scriptable in-memory Transport for supervisor unit
// tests.
type funcTransport struct {
	addr string
	call func(ctx context.Context, t Task) (Reply, error)
	ping func(ctx context.Context) error

	mu    sync.Mutex
	calls int
}

func (f *funcTransport) Call(ctx context.Context, t Task) (Reply, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return f.call(ctx, t)
}

func (f *funcTransport) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *funcTransport) Ping(ctx context.Context) error {
	if f.ping != nil {
		return f.ping(ctx)
	}
	return nil
}

func (f *funcTransport) Addr() string { return f.addr }
func (f *funcTransport) Close() error { return nil }

// scoringTransport answers like a correct worker, in memory.
func scoringTransport(addr string, delay time.Duration) *funcTransport {
	return &funcTransport{
		addr: addr,
		call: func(ctx context.Context, t Task) (Reply, error) {
			if delay > 0 {
				select {
				case <-ctx.Done():
					return Reply{}, ctx.Err()
				case <-time.After(delay):
				}
			}
			r := Reply{Seq: t.Seq, Epoch: t.Epoch}
			values, err := t.Measure.Score(t.Rows)
			if err != nil {
				r.Err = err.Error()
			} else {
				r.Values = values
			}
			return r, nil
		},
	}
}
