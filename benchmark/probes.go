package main

// Standalone probes: timed calls into each layer's exported functions on the
// run's own seeded inputs. They supply the per-layer metrics of layers that a
// request only reaches nested inside another layer's call (GroupIndex under
// the cycle, the journal under a stream), where a span cannot separate them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"vadasa"
	"vadasa/internal/anon"
	"vadasa/internal/datalog"
	"vadasa/internal/dist"
	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/programs"
	"vadasa/internal/risk"
	"vadasa/internal/stream"
	"vadasa/internal/synth"
)

// probeSet collects per-layer metrics by name.
type probeSet map[string]metric

func (p probeSet) put(name string, v float64, unit string, n int) {
	p[name] = metric{Value: v, Unit: unit, N: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs f reps times and returns the median duration: a probe's one-off
// spikes (a GC cycle, a scheduler hiccup) must not decide a per-layer number.
func timed(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

const probeReps = 3

// probeMDB times the microdata model: CSV decode and encode, Clone, the
// GroupIndex build, a suppression batch and a row-operation batch.
func probeMDB(ctx context.Context, p probeSet, t *table) error {
	var d *mdb.Dataset
	read, err := timed(probeReps, func() (err error) {
		d, err = mdb.ReadCSV(bytes.NewReader(t.csv), "probe", t.data.Attrs)
		return err
	})
	if err != nil {
		return err
	}
	p.put("mdb.readcsv_ms", ms(read), "ms", probeReps)
	p.put("mdb.readcsv_mb_per_s", float64(len(t.csv))/1e6/read.Seconds(), "MB/s", probeReps)
	write, err := timed(probeReps, func() error { var b bytes.Buffer; return mdb.WriteCSV(&b, d) })
	if err != nil {
		return err
	}
	p.put("mdb.writecsv_ms", ms(write), "ms", probeReps)
	clone, _ := timed(probeReps, func() error { _ = d.Clone(); return nil })
	p.put("mdb.clone_ms", ms(clone), "ms", probeReps)

	qi := d.QuasiIdentifiers()
	var idx *mdb.GroupIndex
	build, err := timed(probeReps, func() (err error) { idx, err = mdb.BuildGroupIndex(ctx, d, qi, mdb.MaybeMatch); return err })
	if err != nil {
		return err
	}
	p.put("mdb.groupindex_build_ms", ms(build), "ms", probeReps)
	groups := map[string]struct{}{}
	var key strings.Builder
	for _, r := range d.Rows {
		key.Reset()
		for _, a := range qi {
			key.WriteString(r.Values[a].String())
			key.WriteByte(0)
		}
		groups[key.String()] = struct{}{}
	}
	p.put("mdb.groups", float64(len(groups)), "count", len(d.Rows))

	// A suppression batch as the cycle issues it: null one quasi-identifier
	// of each of the rarest rows, then Commit.
	rare := rarest(idx.Infos(), suppressBatch*probeReps)
	batch := len(rare) / probeReps
	if batch == 0 {
		return fmt.Errorf("mdb probe: table too small to suppress from")
	}
	var dirtyTotal, commits int
	suppress, err := timed(probeReps, func() error {
		for _, pos := range rare[commits*batch : (commits+1)*batch] {
			d.Rows[pos].Values[qi[0]] = d.Nulls.Fresh()
			if err := idx.SuppressCell(pos, qi[0]); err != nil {
				return err
			}
		}
		dirty, err := idx.Commit(ctx)
		dirtyTotal += len(dirty)
		commits++
		return err
	})
	if err != nil {
		return err
	}
	p.put("mdb.suppress_commit_us", us(suppress), "us", probeReps)
	p.put("mdb.dirty_per_commit", float64(dirtyTotal)/float64(commits), "count", commits)

	// A row-operation batch as a stream issues it, on a window-sized
	// dataset: append 50 rows and Commit, delete 50 rows and Commit.
	win := &mdb.Dataset{Name: "window", Attrs: t.data.Attrs}
	for _, r := range t.data.Rows[:min(fullStreamShape.window, len(t.data.Rows)-fullStreamShape.batch*probeReps)] {
		win.Append(r.Clone())
	}
	widx, err := mdb.BuildGroupIndex(ctx, win, qi, mdb.MaybeMatch)
	if err != nil {
		return err
	}
	next := len(win.Rows)
	rowops, err := timed(probeReps, func() error {
		for i := 0; i < fullStreamShape.batch; i++ {
			win.Append(t.data.Rows[next].Clone())
			next++
			if err := widx.AppendRow(widx.Len()); err != nil {
				return err
			}
		}
		if _, err := widx.Commit(ctx); err != nil {
			return err
		}
		for i := 0; i < fullStreamShape.batch; i++ {
			win.Rows = win.Rows[1:]
			if err := widx.DeleteRow(0); err != nil {
				return err
			}
		}
		_, err := widx.Commit(ctx)
		return err
	})
	if err != nil {
		return err
	}
	p.put("mdb.rowop_commit_us", us(rowops), "us", probeReps)
	return nil
}

// suppressBatch is how many cells one probed suppression batch nulls.
const suppressBatch = 64

// rarest returns the positions of the n rows with the smallest groups.
func rarest(infos []mdb.GroupInfo, n int) []int {
	var out []int
	for want := 1; len(out) < n; want++ {
		for pos, g := range infos {
			if g.Freq == want && len(out) < n {
				out = append(out, pos)
			}
		}
		if want > len(infos) {
			break
		}
	}
	return out
}

// probeRisk times the four measures' full assessments and one incremental
// re-scoring after a suppression batch.
func probeRisk(ctx context.Context, p probeSet, t, sudaTable *table) error {
	for _, c := range []struct {
		name string
		a    risk.Assessor
		t    *table
	}{
		{"risk.assess_kanon_ms", risk.KAnonymity{K: 3}, t},
		{"risk.assess_reident_ms", risk.ReIdentification{}, t},
		{"risk.assess_indiv_ms", risk.IndividualRisk{Estimator: risk.PosteriorSeries}, t},
		{"risk.assess_suda_ms", risk.SUDA{Threshold: 3}, sudaTable},
	} {
		d, err := timed(probeReps, func() error { _, err := risk.AssessContext(ctx, c.a, c.t.data, mdb.MaybeMatch); return err })
		if err != nil {
			return err
		}
		p.put(c.name, ms(d), "ms", probeReps)
	}

	d := t.data.Clone()
	qi := d.QuasiIdentifiers()
	idx, err := mdb.BuildGroupIndex(ctx, d, qi, mdb.MaybeMatch)
	if err != nil {
		return err
	}
	a := risk.ReIdentification{}
	prev, err := a.Rescore(ctx, idx, nil, nil)
	if err != nil {
		return err
	}
	rare := rarest(idx.Infos(), suppressBatch*probeReps)
	batch := len(rare) / probeReps
	if batch == 0 {
		return fmt.Errorf("risk probe: table too small to suppress from")
	}
	var rescore []float64
	dirtyTotal := 0
	for round := 0; round < probeReps; round++ {
		for _, pos := range rare[round*batch : (round+1)*batch] {
			d.Rows[pos].Values[qi[0]] = d.Nulls.Fresh()
			if err := idx.SuppressCell(pos, qi[0]); err != nil {
				return err
			}
		}
		dirty, err := idx.Commit(ctx)
		if err != nil {
			return err
		}
		dirtyTotal += len(dirty)
		// Only the re-scoring is this metric; the commit above is mdb's.
		start := time.Now()
		if prev, err = a.Rescore(ctx, idx, dirty, prev); err != nil {
			return err
		}
		rescore = append(rescore, us(time.Since(start)))
	}
	p.put("risk.rescore_us", median(rescore), "us", probeReps)
	p.put("risk.rescored_share", float64(dirtyTotal)/probeReps/float64(len(d.Rows)), "1", probeReps)
	return nil
}

// probeAnon times the whole cycle per distribution family and, through the
// public Checkpoint hook, splits the unbalanced one into iterations.
func probeAnon(ctx context.Context, p probeSet, tables []*table) error {
	for i, name := range []string{"anon.cycle_w_ms", "anon.cycle_u_ms", "anon.cycle_v_ms"} {
		t := tables[i]
		var cps []anon.Checkpoint
		var res *anon.Result
		d, err := timed(1, func() (err error) {
			res, err = vadasa.New().AnonymizeContext(ctx, t.data, vadasa.CycleOptions{
				Measure: vadasa.KAnonymity{K: 3}, Threshold: 0.5,
				Checkpoint: func(cp anon.Checkpoint) error { cps = append(cps, cp); return nil },
			})
			return err
		})
		if err != nil {
			return err
		}
		p.put(name, ms(d), "ms", 1)
		if i != 1 {
			continue
		}
		var iter time.Duration
		for _, cp := range cps {
			iter += cp.RiskEval + cp.Anon
		}
		p.put("anon.iterations", float64(res.Iterations), "count", 1)
		p.put("anon.iter_ms", ms(iter)/float64(max(len(cps), 1)), "ms", len(cps))
		first := time.Duration(0)
		if len(cps) > 0 {
			first = cps[0].RiskEval
		}
		p.put("anon.first_assess_ms", ms(first), "ms", 1)
		p.put("anon.decisions", float64(len(res.Decisions)), "count", 1)
		p.put("anon.nulls", float64(res.NullsInjected), "count", 1)
	}
	return nil
}

// probeDatalog times the engine on the k-anonymity program over the 50k
// table: parse, fact load, evaluation, result materialisation, one
// explanation; and reads the run's exact counters from EvalStats.
func probeDatalog(ctx context.Context, p probeSet, big *table) error {
	src := programs.KAnonymity(4, 3).String()
	var prog *datalog.Program
	parse, err := timed(5, func() (err error) { prog, err = datalog.Parse(src); return err })
	if err != nil {
		return err
	}
	p.put("datalog.parse_us", us(parse), "us", 5)

	// Arguments are built outside the timer: datalog.load_ms is Database.Add
	// alone; the encoding from the microdata model is programs.tuplefacts_ms.
	qi := big.data.QuasiIdentifiers()
	args := make([][]datalog.Val, len(big.data.Rows))
	for i, r := range big.data.Rows {
		a := make([]datalog.Val, 0, len(qi)+2)
		a = append(a, datalog.Num(float64(r.ID)))
		for _, j := range qi {
			a = append(a, datalog.Str(r.Values[j].Constant()))
		}
		args[i] = append(a, datalog.Num(r.Weight))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var edb *datalog.Database
	load, _ := timed(1, func() error {
		edb = datalog.NewDatabase()
		for _, a := range args {
			edb.Add("tuple", a...)
		}
		return nil
	})
	var res *datalog.Result
	run, err := timed(1, func() (err error) { res, err = datalog.RunContext(ctx, prog, edb, nil); return err })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	n := len(big.data.Rows)
	p.put("datalog.load_ms", ms(load), "ms", n)
	p.put("datalog.run_ms", ms(run), "ms", n)
	p.put("datalog.allocs_per_fact", float64(after.Mallocs-before.Mallocs)/float64(n), "count", n)
	var facts []datalog.Tuple
	out, _ := timed(probeReps, func() error { facts = res.Facts("riskout"); return nil })
	p.put("datalog.facts_out_ms", ms(out), "ms", probeReps)
	if len(facts) == 0 {
		return fmt.Errorf("datalog probe derived no riskout facts")
	}
	explain, err := timed(probeReps, func() error { _, err := res.Explain("riskout", facts[len(facts)/2]...); return err })
	if err != nil {
		return err
	}
	p.put("datalog.explain_ms", ms(explain), "ms", probeReps)
	p.put("datalog.match_attempts", float64(res.Stats.MatchAttempts), "count", 1)
	p.put("datalog.derived_facts", float64(res.Stats.DerivedFacts), "count", 1)
	p.put("datalog.rounds", float64(res.Stats.Rounds), "count", 1)
	p.put("datalog.peak_bytes", float64(res.Stats.PeakBytes), "B", 1)
	return nil
}

// probePrograms times the bridge between the microdata model and the engine
// and the declarative-to-native cost ratio the roadmap wants under 2.
func probePrograms(ctx context.Context, p probeSet, big *table) error {
	for _, c := range []struct {
		name   string
		prog   *datalog.Program
		native risk.Assessor
	}{
		{"programs.decl_vs_native_kanon", programs.KAnonymity(4, 3), risk.KAnonymity{K: 3}},
		{"programs.decl_vs_native_reident", programs.ReIdentification(4), risk.ReIdentification{}},
	} {
		var edb *datalog.Database
		encode, _ := timed(1, func() error { edb = datalog.NewDatabase(); programs.TupleFacts(edb, big.data); return nil })
		var res *datalog.Result
		run, err := timed(1, func() (err error) { res, err = datalog.RunContext(ctx, c.prog, edb, nil); return err })
		if err != nil {
			return err
		}
		decode, _ := timed(1, func() error { _ = programs.DecodeRisk(res); return nil })
		native, err := timed(probeReps, func() error { _, err := risk.AssessContext(ctx, c.native, big.data, mdb.MaybeMatch); return err })
		if err != nil {
			return err
		}
		p.put(c.name, (encode+run+decode).Seconds()/native.Seconds(), "x", 1)
		if c.name == "programs.decl_vs_native_kanon" {
			p.put("programs.tuplefacts_ms", ms(encode), "ms", 1)
			p.put("programs.decode_risk_ms", ms(decode), "ms", 1)
		}
	}
	return nil
}

// countingFS counts fsyncs on files opened for writing through it.
type countingFS struct {
	faultfs.FS
	syncs *atomic.Int64
}

type countingFile struct {
	faultfs.File
	syncs *atomic.Int64
}

func (c countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c.syncs}, nil
}

func (f countingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// journalProbeRecords is enough appends for a p99 with ten samples beyond it.
const journalProbeRecords = 1100

// probeJournal times the write-ahead journal alone: appends of a stream
// batch's size including their fsync, the scan recovery does, and the
// scan-and-reopen of OpenAppend.
func probeJournal(ctx context.Context, p probeSet, dir string, payload []byte) error {
	path := filepath.Join(dir, "probe.journal")
	var syncs atomic.Int64
	w, err := journal.CreateWith(path, journal.Config{FS: countingFS{faultfs.OS, &syncs}})
	if err != nil {
		return err
	}
	body := struct {
		Batch string `json:"batch"`
	}{string(payload)}
	lat := make([]float64, 0, journalProbeRecords)
	for i := 0; i < journalProbeRecords; i++ {
		start := time.Now()
		if err := w.Append(journal.TypeIter, body); err != nil {
			w.Close()
			return err
		}
		lat = append(lat, float64(time.Since(start))/float64(time.Microsecond))
	}
	if err := w.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.put("journal.append_us", percentile(lat, 50), "us", len(lat))
	p.put("journal.append_p99_us", percentile(lat, 99), "us", len(lat))
	p.put("journal.bytes_per_record", float64(fi.Size())/journalProbeRecords, "B", journalProbeRecords)
	p.put("journal.fsyncs", float64(syncs.Load()), "count", journalProbeRecords)

	scan, err := timed(probeReps, func() error {
		it, err := journal.Records(ctx, path)
		if err != nil {
			return err
		}
		defer it.Close()
		n := 0
		for it.Next() {
			n++
		}
		if n != journalProbeRecords {
			return fmt.Errorf("journal scan saw %d of %d records", n, journalProbeRecords)
		}
		return it.Err()
	})
	if err != nil {
		return err
	}
	p.put("journal.scan_mb_per_s", float64(fi.Size())/1e6/scan.Seconds(), "MB/s", probeReps)
	open, err := timed(probeReps, func() error {
		w, _, err := journal.OpenAppend(path)
		if err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	p.put("journal.open_append_ms", ms(open), "ms", probeReps)
	return nil
}

// probeFollower times the standby's replay of single records: a follower is
// opened over a mirror holding the journal's first record and fed the rest
// one at a time, as HandleShip does after making each frame durable.
func probeFollower(ctx context.Context, p probeSet, dir, id, walPath string, opts stream.Options) error {
	raw, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) < 2 {
		return fmt.Errorf("follower probe: journal has %d records", len(lines))
	}
	mirror := filepath.Join(dir, "follower.wal")
	f, err := os.OpenFile(mirror, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(lines[0], '\n')); err != nil {
		return err
	}
	fol, err := stream.OpenFollower(ctx, id, mirror, opts)
	if err != nil {
		return err
	}
	defer fol.Close()
	var lat []float64
	for i, line := range lines[1:] {
		rec, ok := journal.ParseLine(line, i+2)
		if !ok {
			return fmt.Errorf("follower probe: record %d does not parse", i+2)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			return err
		}
		start := time.Now()
		if err := fol.Apply(ctx, rec); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(start))/float64(time.Microsecond))
	}
	p.put("replica.follower_apply_us", percentile(lat, 50), "us", len(lat))
	return nil
}

// probeDist times a full incremental re-scoring sharded over two in-process
// workers against the same re-scoring done locally. Sharded scoring is not a
// workload (three processes and a generator on two cores measure the
// scheduler); this keeps the layer visible.
func probeDist(ctx context.Context, p probeSet, t *table) error {
	var transports []dist.Transport
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(dist.WorkerHandler(dist.WorkerOptions{}))
		defer srv.Close()
		transports = append(transports, dist.NewHTTPTransport(strings.TrimPrefix(srv.URL, "http://"), nil))
	}
	sup := dist.NewSupervisor(transports, dist.Options{Run: "probe"})
	defer sup.Close()
	inner := risk.ReIdentification{}
	da, err := dist.NewAssessor(inner, sup)
	if err != nil {
		return err
	}
	idx, err := mdb.BuildGroupIndex(ctx, t.data, t.data.QuasiIdentifiers(), mdb.MaybeMatch)
	if err != nil {
		return err
	}
	sharded, err := timed(probeReps, func() error { _, err := da.Rescore(ctx, idx, nil, nil); return err })
	if err != nil {
		return err
	}
	local, err := timed(probeReps, func() error { _, err := inner.Rescore(ctx, idx, nil, nil); return err })
	if err != nil {
		return err
	}
	p.put("dist.rescore_ms", ms(sharded), "ms", probeReps)
	p.put("dist.vs_local_ratio", sharded.Seconds()/local.Seconds(), "x", probeReps)

	infos := idx.Infos()
	rows := make([]dist.TaskRow, len(infos))
	for i, g := range infos {
		rows[i] = dist.TaskRow{Pos: i, ID: t.data.Rows[i].ID, Freq: g.Freq, WeightSum: g.WeightSum}
	}
	spec, _ := dist.SpecFor(inner)
	wire, err := json.Marshal(dist.Task{Run: "probe", Seq: 1, Epoch: 1, Measure: spec, Rows: rows})
	if err != nil {
		return err
	}
	p.put("dist.task_bytes_per_row", float64(len(wire))/float64(len(rows)), "B", len(rows))
	snap := sup.Snapshot()
	p.put("dist.retries", float64(snap.Retries), "count", 1)
	p.put("dist.local_fallbacks", float64(snap.LocalFallbacks), "count", 1)
	return nil
}

// probeJSON times the serving shell's two large codec jobs: decoding a
// /reason body and encoding an /anonymize response.
func probeJSON(p probeSet, reasonReq []byte, csvPayload []byte) error {
	dec, err := timed(probeReps, func() error {
		var req struct {
			Program string             `json:"program"`
			Facts   map[string][][]any `json:"facts"`
		}
		return json.Unmarshal(reasonReq, &req)
	})
	if err != nil {
		return err
	}
	p.put("vadasad.json_decode_ms", ms(dec), "ms", probeReps)
	resp := struct {
		CSV string `json:"csv"`
	}{string(csvPayload)}
	enc, err := timed(probeReps, func() error {
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetEscapeHTML(false)
		return e.Encode(resp)
	})
	if err != nil {
		return err
	}
	p.put("vadasad.json_encode_ms", ms(enc), "ms", probeReps)
	return nil
}

// probeTables generates the tables the probes share: the 25k families, the
// SUDA table and the 50k table of the declarative path.
func probeTables(seed int64, sc scale) (native []*table, big *table, err error) {
	if native, err = nativeTables(seed, sc); err != nil {
		return nil, nil, err
	}
	big, err = genTable("R50A4U", 50000, 4, synth.DistU, synthSeed(seed, 11), sc)
	return native, big, err
}
