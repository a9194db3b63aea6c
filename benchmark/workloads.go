package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// env is what every run shares: where the checkout is, the built daemon, and
// where state may be written (always inside the checkout).
type env struct {
	root   string // checkout root (the directory holding cmd/vadasad)
	bin    string // built vadasad
	tmp    string // parent of per-run state directories
	outDir string // trace and result files
	procs  int    // GOMAXPROCS given to each daemon
	sc     scale
	client *http.Client
	refs   *refCache
	buildS float64
}

// plan is a workload's seeded inputs and schedule. Building it is part of
// set-up; it depends on the seed, the scale and the requested run length
// only, never on the machine or the clock.
type plan struct {
	tables []*table
	warm   []op // sent before timing starts: every endpoint and measure once, on the cheapest inputs
	// The measured schedule of the request/response workloads: `rounds`
	// times the same `round`, every distinct request once (or a fixed number
	// of times), dearest first so that a round ends on its cheapest requests.
	round   []op
	rounds  int
	streams []*streamPlan
	checks  map[string]check
	digest  string // SHA-256 over the schedule's request bytes, in order

	// lastJob is the id the daemon gave the schedule's last job; recovery
	// re-fetches that job's result.
	lastJob string
}

// workload is one of the five named traffic mixes.
type workload struct {
	name string
	why  string
	// primary and secondary are the latency classes reported as op_ms and
	// op2_ms.
	primary, secondary string
	// durable workloads keep state on disk: they report wal_bytes_per_row.
	durable bool
	// failover workloads recover by promoting the standby, which can be done
	// once; the others restart in place and repeat the recovery.
	failover bool
	// flags returns the serving daemon's flags for a state directory and,
	// for a replicated workload, the standby's (else nil). standbyBase is
	// the standby's URL.
	flags func(dir, standbyBase string) (serving, standby []string)
	plan  func(e *env, seed int64, seconds int) (*plan, error)
	warm  func(ctx context.Context, c *cluster, p *plan) error
	// prepare, when set, runs between set-up and the measured phase and is
	// neither: the stream workloads fill their windows in it.
	prepare func(ctx context.Context, c *cluster, p *plan) *recorder
	// recoverFirst puts crash recovery before the measured phase instead of
	// after it.
	recoverFirst bool
	load         func(ctx context.Context, c *cluster, p *plan) ([]*recorder, []roundStat)
	// recover brings service back after the serving daemon was SIGKILLed
	// (cluster.restart or a promotion) and re-fetches an artefact. The
	// returned verify reports whether the artefact is byte-identical to what
	// was served before the kill; it runs after recovery has been timed.
	recover func(ctx context.Context, c *cluster, p *plan) (verify func() error, err error)
}

var workloads = []*workload{anonymizeNative, reasonDeclarative, streamLoop, streamSyncRepl, jobsDurable}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cluster is the daemons of one run.
type cluster struct {
	e       *env
	w       *workload
	dir     string
	serving *daemon // the daemon clients talk to
	standby *daemon // replication standby, nil otherwise
	all     []*daemon
	cal     *calibration
}

// boot starts the workload's daemons over a fresh state directory and waits
// for /readyz. The standby starts first: a primary with no peer listening
// logs retries and, in sync mode, fails appends.
func boot(ctx context.Context, e *env, w *workload) (*cluster, error) {
	dir, err := os.MkdirTemp(e.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	c := &cluster{e: e, w: w, dir: dir, cal: newCalibration()}
	var standbyBase string
	if w.failover {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		standbyBase = "http://" + addr
	}
	serving, standby := w.flags(dir, standbyBase)
	if w.failover {
		if c.standby, err = c.start(ctx, strings.TrimPrefix(standbyBase, "http://"), "standby.log", standby); err != nil {
			c.stop()
			return nil, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		c.stop()
		return nil, err
	}
	if c.serving, err = c.start(ctx, addr, "daemon.log", serving); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) start(ctx context.Context, addr, logName string, flags []string) (*daemon, error) {
	d, err := startDaemon(c.e.bin, addr, filepath.Join(c.dir, logName), c.e.procs, flags...)
	if err != nil {
		return nil, err
	}
	c.all = append(c.all, d)
	if err := d.waitReady(ctx, c.e.client, 30*time.Second); err != nil {
		return nil, err
	}
	return d, nil
}

// restart replaces the (killed) serving daemon with a fresh process over the
// same state directory and waits until it is ready.
func (c *cluster) restart(ctx context.Context) error {
	flags, _ := c.w.flags(c.dir, "")
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	c.serving, err = c.start(ctx, addr, "daemon.log", flags)
	return err
}

// usage sums CPU seconds over every daemon process of the run, dead ones
// included, and takes the largest peak resident set.
func (c *cluster) usage() procUsage {
	var total procUsage
	for _, d := range c.all {
		u, err := d.usage()
		if err != nil {
			continue // the process vanished between kill and read; its last reading is gone too
		}
		total.cpuSeconds += u.cpuSeconds
		total.peakRSSMB = max(total.peakRSSMB, u.peakRSSMB)
	}
	return total
}

// rss is the largest resident set among the daemons serving now.
func (c *cluster) rss() float64 {
	var most float64
	for _, d := range []*daemon{c.serving, c.standby} {
		if d == nil {
			continue
		}
		if u, err := d.usage(); err == nil {
			most = max(most, u.rssMB)
		}
	}
	return most
}

// stop kills every daemon and removes the state directory.
func (c *cluster) stop() {
	for _, d := range c.all {
		d.kill()
	}
	os.RemoveAll(c.dir)
}

// walBytes sums the bytes the daemons keep on disk for durability: journals,
// spooled inputs and the replication node's epoch log — everything under the
// state directory except served artefacts (release and output CSVs) and logs.
func (c *cluster) walBytes() (int64, error) {
	var total int64
	err := filepath.Walk(c.dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		name := info.Name()
		if strings.HasSuffix(name, ".log") || strings.HasSuffix(name, ".out.csv") || strings.Contains(name, ".release-") {
			return nil
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// setUp is everything between "nothing" and "ready to measure": generate the
// inputs and the schedule from the seed, boot the daemons to /readyz, and
// send the warm-up pass. It is what setup_s times.
func setUp(ctx context.Context, e *env, w *workload, seed int64, seconds int) (*cluster, *plan, time.Duration, error) {
	start := time.Now()
	p, err := w.plan(e, seed, seconds)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("planning %s: %w", w.name, err)
	}
	c, err := boot(ctx, e, w)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("booting %s: %w", w.name, err)
	}
	if err := w.warm(ctx, c, p); err != nil {
		c.stop()
		return nil, nil, 0, fmt.Errorf("warming %s: %w", w.name, err)
	}
	return c, p, time.Since(start), nil
}

// setupRepeats is how many times a run sets up; setup_s is their median, so
// one slow boot does not decide the metric.
const setupRepeats = 3

// A run kills and recovers the serving daemon up to recoverRepeats times, as
// long as the recoveries so far took less than recoverBudget together.
const (
	recoverRepeats = 10
	recoverBudget  = 3500 * time.Millisecond
)

// recoverLoop SIGKILLs the serving daemon and brings service back, over and
// over while that is cheap, and returns how long each recovery took. A
// failover can only happen once.
func recoverLoop(ctx context.Context, c *cluster, p *plan, rec *recorder) []float64 {
	var took []float64
	for spent := time.Duration(0); len(took) < recoverRepeats && spent < recoverBudget && !(c.w.failover && len(took) > 0); {
		killed := time.Now()
		c.serving.kill()
		verify, err := c.w.recover(ctx, c, p)
		d := time.Since(killed)
		if err == nil {
			err = verify()
		}
		rec.attempted++
		if err != nil {
			rec.fail(fmt.Errorf("recovery: %w", err))
			break
		}
		spent += d
		took = append(took, d.Seconds())
		c.cal.pause()
	}
	return took
}

// runWorkload is one untraced run: set-up, the measured closed-loop phase,
// crash recovery (before the phase or after it, see workload.recoverFirst),
// output checks, and the extra set-ups.
func runWorkload(ctx context.Context, e *env, w *workload, seed int64, seconds int) (*runResult, error) {
	c, p, setup, err := setUp(ctx, e, w, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	setups := []float64{setup.Seconds()}

	// Everything outside the measured phase is counted and checked like the
	// phase itself, but none of its timings are kept.
	outside := newRecorder()
	if w.prepare != nil {
		outside = w.prepare(ctx, c, p)
	}
	var recoveries []float64
	if w.recoverFirst {
		recoveries = recoverLoop(ctx, c, p, outside)
	}

	// The generator is idle before and after the phase, so the daemons are
	// too: everything acknowledged is on disk and nothing is in flight.
	wal0, err := c.walBytes()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	recs, stats := w.load(ctx, c, p)
	self1 := selfCPUSeconds()
	rec := merged(recs)
	wal1, err := c.walBytes()
	if err != nil {
		return nil, err
	}
	if !w.recoverFirst {
		recoveries = recoverLoop(ctx, c, p, outside)
	}
	peak := c.usage().peakRSSMB
	c.stop()

	rec.attempted += outside.attempted
	rec.failed += outside.failed
	rec.shed += outside.shed
	rec.replies = append(rec.replies, outside.replies...)
	if rec.firstErr == nil {
		rec.firstErr = outside.firstErr
	}
	checkFailed, checkErr := checkReplies(p.checks, rec.replies)
	rec.failed += checkFailed
	if rec.firstErr == nil {
		rec.firstErr = checkErr
	}

	for len(setups) < setupRepeats {
		c2, _, d, err := setUp(ctx, e, w, seed, seconds)
		if err != nil {
			return nil, err
		}
		c2.stop()
		setups = append(setups, d.Seconds())
	}

	var walls, cpus, peaks []float64
	var wall, cpu float64
	for _, s := range stats {
		walls, cpus, peaks = append(walls, s.wallS), append(cpus, s.cpuS), append(peaks, s.peakRSSMB)
		wall, cpu = wall+s.wallS, cpu+s.cpuS
	}
	res := &runResult{
		Workload:     w.name,
		Seed:         seed,
		Seconds:      seconds,
		Attempted:    rec.attempted,
		Failed:       rec.failed,
		PhaseSeconds: wall,
		Rounds:       len(stats),
		Schedule:     p.digest,
		GeneratorCPU: (self1 - self0) / (wall * float64(e.procs)),
		Metrics:      map[string]metric{},
	}
	if rec.firstErr != nil {
		res.FirstError = rec.firstErr.Error()
	}
	// Every round is the same work, so the rows of one are the phase's share.
	krowsPerRound := float64(rec.rows) / 1000 / float64(len(stats))
	prim, sec := rec.class(w.primary), rec.class(w.secondary)
	tail := tailPercentile(len(prim))
	res.TailPercentile = tail

	// The metrics BENCHMARK.json lists. Timings are lower quartiles (see
	// lowerQuartile) relative to the machine's speed during the run (see
	// calibrate.go); raw.* are the same before that division.
	speed := c.cal.speed()
	res.put("machine_speed", speed, "x", len(c.cal.samples()))
	timing := func(name string, v float64, unit string, n int) {
		res.put(name, v/speed, unit, n)
		res.put("raw."+name, v, unit, n)
	}
	timing("setup_s", median(setups), "s", len(setups))
	timing("cpu_s_per_krow", lowerQuartile(cpus)/krowsPerRound, "s", len(cpus))
	timing("op_ms", classQuartile(rec.lat[w.primary]), "ms", len(prim))
	timing("op2_ms", classQuartile(rec.lat[w.secondary]), "ms", len(sec))
	timing("recover_ready_s", lowerQuartile(recoveries), "s", len(recoveries))
	rate := 1000 * krowsPerRound / lowerQuartile(walls)
	res.put("rows_per_s", rate*speed, "1/s", len(walls))
	res.put("raw.rows_per_s", rate, "1/s", len(walls))
	res.put("peak_rss_mb", median(peaks), "MB", len(peaks))

	// What a result file and the report carry besides: the same quantities as
	// plain medians, tails and whole-phase totals, which move with the host.
	res.put("op_p50_ms", percentile(prim, 50), "ms", len(prim))
	res.put("op_tail_ms", percentile(prim, tail), "ms", len(prim))
	res.put("op2_p50_ms", percentile(sec, 50), "ms", len(sec))
	res.put("phase_rows_per_s", float64(rec.rows)/wall, "1/s", rec.attempted)
	res.put("phase_cpu_s_per_krow", cpu/(float64(rec.rows)/1000), "s", rec.attempted)
	res.put("hwm_rss_mb", peak, "MB", len(c.all))
	if w.durable {
		res.put("wal_bytes_per_row", float64(wal1-wal0)/float64(rec.rows), "B", 1)
	}
	res.put("fail_share", float64(rec.failed)/float64(rec.attempted), "1", rec.attempted)
	res.put("shed_429_503", float64(rec.shed), "count", rec.attempted)
	for kind, keys := range rec.lat {
		res.put("lat."+kind+"_ms", classQuartile(keys), "ms", len(rec.class(kind)))
	}
	return res, nil
}

// digestPlan fixes p.digest from the schedule's request bytes.
func digestPlan(p *plan) {
	h := sha256.New()
	digestOps(h, p.warm)
	for i := 0; i < p.rounds; i++ {
		digestOps(h, p.round)
	}
	for _, s := range p.streams {
		digestOps(h, s.ops())
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
}
