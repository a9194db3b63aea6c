package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"vadasa/internal/anon"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// streamShape is the append→release→ack→withdraw loop's geometry.
type streamShape struct {
	appends  int // batches per cycle
	batch    int // rows per batch
	window   int // window size above which the oldest rows are withdrawn
	withdraw int // rows withdrawn at a time
}

var (
	fullStreamShape  = streamShape{appends: 20, batch: 50, window: 5000, withdraw: 1000}
	smokeStreamShape = streamShape{appends: 4, batch: 25, window: 300, withdraw: 100}
)

// streamCyclesPerSecond sizes the stream schedules like the constants in
// plain.go size the others: measured cycles per stream per second of run
// length. A round of the measured phase is one cycle of every stream.
const streamCyclesPerSecond = 3.0

// fillCycles run before the measured phase: they grow each window past its
// bound, so that every measured cycle withdraws and is the same work, and
// they leave a journal of fixed length — appends, releases and withdrawals —
// for crash recovery to replay.
const (
	fullFillCycles  = 10
	smokeFillCycles = 5
)

// warmCycles is the warm-up each client runs on a throw-away stream.
const warmCycles = 2

// streamPlan is one client's stream: its measure, its rows, the pre-rendered
// append batches, and how far the client has driven it.
type streamPlan struct {
	id      string
	measure measureSpec
	attrs   []mdb.Attribute
	create  string // schema and measure parameters carried by the first append
	shape   streamShape
	fill    int      // cycles before the measured phase
	cycles  int      // fill + measured cycles
	batches [][]byte // cycles×appends CSV bodies

	done   int   // cycles driven so far
	window []int // row ids in arrival order
	// pending is the reply of the last cycle's GET release, not yet acked: the
	// artefact crash recovery must re-serve. getTook is how long the GET took.
	pending []byte
	getTook time.Duration
}

func newStreamPlan(id string, m measureSpec, seed int64, fill, measured int, sc scale) (*streamPlan, error) {
	shape := fullStreamShape
	if sc.smoke {
		shape = smokeStreamShape
	}
	cycles := fill + measured
	n := cycles * shape.appends * shape.batch
	// rowDiv 1: the schedule, not the scale, decides how many rows a stream needs.
	t, err := genTable("stream-"+id, n, 4, synth.DistU, seed, scale{rowDiv: 1})
	if err != nil {
		return nil, err
	}
	s := &streamPlan{
		id: id, measure: m, attrs: t.data.Attrs, shape: shape, fill: fill, cycles: cycles,
		create: "&" + t.query + "&" + m.anonymizeQuery(),
	}
	for lo := 0; lo+shape.batch <= t.rows() && len(s.batches) < cycles*shape.appends; lo += shape.batch {
		s.batches = append(s.batches, batchCSV(t, lo, lo+shape.batch))
	}
	return s, nil
}

func (s *streamPlan) appendOp(i int) op {
	path := "/stream/" + s.id + "/append?batch=b" + strconv.Itoa(i)
	if i == 0 {
		path += s.create
	}
	return op{kind: "append", key: "append/" + s.id, method: http.MethodPost, path: path, body: s.batches[i], rows: s.shape.batch}
}

// ops lists the stream's append requests for the schedule digest; release,
// ack and withdraw carry ids the daemon assigns and are not part of it.
func (s *streamPlan) ops() []op {
	out := make([]op, len(s.batches))
	for i := range s.batches {
		out[i] = s.appendOp(i)
	}
	return out
}

func (s *streamPlan) releaseKey() string { return "release/" + s.id }

// cycle drives the stream one cycle further against base: ack the release
// the previous cycle fetched and, once the window has outgrown its bound,
// withdraw the oldest rows; then append the cycle's batches and fetch the
// release. Every cycle thus ends with a release served and not yet acked,
// which is the state a crash is recovered from. It reports whether every
// request succeeded.
func (s *streamPlan) cycle(ctx context.Context, c *http.Client, base string, rec *recorder) bool {
	if !s.settle(ctx, c, base, rec) {
		return false
	}
	for i := 0; i < s.shape.appends; i++ {
		o := s.appendOp(s.done*s.shape.appends + i)
		body, ok := rec.do(ctx, c, base, &o)
		if !ok {
			return false
		}
		var res struct {
			RowIDs []int `json:"rowIds"`
		}
		if err := json.Unmarshal(body, &res); err != nil || len(res.RowIDs) != s.shape.batch {
			rec.fail(fmt.Errorf("append reply of stream %s: %d row ids, want %d", s.id, len(res.RowIDs), s.shape.batch))
			return false
		}
		s.window = append(s.window, res.RowIDs...)
	}
	get := op{kind: "release_get", key: s.releaseKey(), method: http.MethodGet, path: "/stream/" + s.id + "/release"}
	start := time.Now()
	body, ok := rec.do(ctx, c, base, &get)
	if !ok {
		return false
	}
	s.getTook = time.Since(start)
	rec.keep(get.key, body)
	s.pending = body
	s.done++
	return true
}

// settle acks the pending release, if any, and withdraws the oldest rows of
// an outgrown window. A release's latency is its GET plus its ack: from the
// last append's 2xx to the release bytes read and acknowledged.
func (s *streamPlan) settle(ctx context.Context, c *http.Client, base string, rec *recorder) bool {
	if s.pending == nil {
		return true
	}
	// Releases are numbered from 1 and this client is the stream's only
	// writer, so the sequence to ack is known without decoding the reply
	// (hundreds of KB) inside the timed loop; checkRelease verifies it.
	ack := op{kind: "ack", key: "ack/" + s.id, method: http.MethodPost, path: "/stream/" + s.id + "/ack?seq=" + strconv.Itoa(s.done)}
	start := time.Now()
	if _, ok := rec.do(ctx, c, base, &ack); !ok {
		return false
	}
	rec.observe("release", s.releaseKey(), s.getTook+time.Since(start))
	s.pending = nil
	if len(s.window) > s.shape.window {
		ids, _ := json.Marshal(map[string][]int{"rowIds": s.window[:s.shape.withdraw]})
		s.window = s.window[s.shape.withdraw:]
		wd := op{kind: "withdraw", key: "withdraw/" + s.id, method: http.MethodPost, path: "/stream/" + s.id + "/withdraw", body: ids}
		if _, ok := rec.do(ctx, c, base, &wd); !ok {
			return false
		}
	}
	return true
}

// drive runs cycles until `upto` have been driven in all.
func (s *streamPlan) drive(ctx context.Context, c *http.Client, base string, rec *recorder, upto int) bool {
	for s.done < upto {
		if !s.cycle(ctx, c, base, rec) {
			return false
		}
	}
	return true
}

// checkMirror asks the standby for its materialised copy of the pending
// release, which must equal the primary's.
func (s *streamPlan) checkMirror(ctx context.Context, c *http.Client, standbyBase string, rec *recorder) {
	get := op{kind: "standby_release", method: http.MethodGet, path: "/stream/" + s.id + "/release"}
	mirror, ok := rec.do(ctx, c, standbyBase, &get)
	if ok && !sameRelease(s.pending, mirror) {
		rec.fail(fmt.Errorf("stream %s: the standby's materialised release differs from the primary's", s.id))
	}
}

// releaseReply is the part of GET /stream/{id}/release the checks read.
type releaseReply struct {
	Release struct {
		Seq    int    `json:"seq"`
		Digest string `json:"digest"`
		Rows   int    `json:"rows"`
	} `json:"release"`
	CSV string `json:"csv"`
}

// sameRelease compares two release replies by sequence, digest and bytes;
// the envelopes legitimately differ in the serving node's local path.
func sameRelease(a, b []byte) bool {
	var ra, rb releaseReply
	if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
		return false
	}
	return ra.Release.Seq == rb.Release.Seq && ra.Release.Digest == rb.Release.Digest && ra.CSV == rb.CSV && ra.CSV != ""
}

// checkRelease: the served bytes hash to the journaled digest, and the
// release passes an independent re-assessment — every tuple at or under the
// stream's threshold (VerifyKAnonymity for the k-anonymity stream).
func (s *streamPlan) checkRelease(body []byte) error {
	var r releaseReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding release of %s: %w", s.id, err)
	}
	sum := sha256.Sum256([]byte(r.CSV))
	if hex.EncodeToString(sum[:]) != r.Release.Digest {
		return fmt.Errorf("stream %s release %d: bytes do not hash to the journaled digest", s.id, r.Release.Seq)
	}
	d, err := mdb.ReadCSV(bytes.NewReader([]byte(r.CSV)), s.id, s.attrs)
	if err != nil {
		return fmt.Errorf("stream %s release %d: %w", s.id, r.Release.Seq, err)
	}
	if len(d.Rows) != r.Release.Rows {
		return fmt.Errorf("stream %s release %d: %d rows, envelope says %d", s.id, r.Release.Seq, len(d.Rows), r.Release.Rows)
	}
	if s.measure.name == kAnon.name {
		if bad := anon.VerifyKAnonymity(d, 3, mdb.MaybeMatch); len(bad) > 0 {
			return fmt.Errorf("stream %s release %d: %d tuples are not 3-anonymous", s.id, r.Release.Seq, len(bad))
		}
		return nil
	}
	risks, err := risk.ReIdentification{}.Assess(d, mdb.MaybeMatch)
	if err != nil {
		return err
	}
	for _, v := range risks {
		if v > s.measure.threshold {
			return fmt.Errorf("stream %s release %d: a tuple's re-identification risk exceeds T", s.id, r.Release.Seq)
		}
	}
	return nil
}

// planStreams builds the two clients' streams: one k-anonymity, one
// re-identification, so both the counting and the weight-summing scorer run.
func planStreams(e *env, seed int64, seconds int) (*plan, error) {
	p := &plan{checks: map[string]check{}, rounds: max(minRounds, int(streamCyclesPerSecond*float64(seconds)+0.5))}
	fill := fullFillCycles
	if e.sc.smoke {
		fill, p.rounds = smokeFillCycles, 3
	}
	for i, m := range []measureSpec{kAnon, reIdent} {
		s, err := newStreamPlan([]string{"kanon", "reident"}[i], m, synthSeed(seed, 16+i), fill, p.rounds, e.sc)
		if err != nil {
			return nil, err
		}
		p.streams = append(p.streams, s)
		p.checks[s.releaseKey()] = s.checkRelease
	}
	digestPlan(p)
	return p, nil
}

// warmStreams runs a short loop on one throw-away stream per client, so every
// code path of the measured loop has run once.
func warmStreams(ctx context.Context, c *cluster, p *plan) error {
	recs := runClients(func(client int, rec *recorder) {
		s := *p.streams[client]
		s.id = "warm" + strconv.Itoa(client)
		s.drive(ctx, c.e.client, c.serving.base, rec, warmCycles)
		s.settle(ctx, c.e.client, c.serving.base, rec)
	})
	return merged(recs).firstErr
}

// fillStreams drives every stream through its fill cycles.
func fillStreams(ctx context.Context, c *cluster, p *plan) *recorder {
	recs := runClients(func(client int, rec *recorder) {
		s := p.streams[client]
		s.drive(ctx, c.e.client, c.serving.base, rec, s.fill)
	})
	return merged(recs)
}

// loadStreams is the measured phase: a round is one cycle of every stream,
// each driven by its own client. With a standby, its mirrors of the final
// releases are checked once the last round is over.
func loadStreams(ctx context.Context, c *cluster, p *plan) ([]*recorder, []roundStat) {
	recs, stats := runRounds(c, p.rounds, func(_, client int, rec *recorder) {
		p.streams[client].cycle(ctx, c.e.client, c.serving.base, rec)
	})
	if c.standby != nil {
		eachClient(func(client int) {
			p.streams[client].checkMirror(ctx, c.e.client, c.standby.base, recs[client])
		})
	}
	return recs, stats
}

// refetchReleases asks the serving daemon for every stream's pending release;
// the returned verify compares each with the one served before the kill.
func refetchReleases(ctx context.Context, c *cluster, p *plan) (func() error, error) {
	bodies := make([][]byte, len(p.streams))
	for i, s := range p.streams {
		o := op{kind: "release_get", method: http.MethodGet, path: "/stream/" + s.id + "/release"}
		status, body, _, err := call(ctx, c.e.client, c.serving.base, &o)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("release of stream %s after recovery: HTTP %d", s.id, status)
		}
		bodies[i] = body
	}
	return func() error {
		for i, s := range p.streams {
			if !sameRelease(s.pending, bodies[i]) {
				return fmt.Errorf("stream %s: the release re-served after recovery differs from the one served before the kill", s.id)
			}
		}
		return nil
	}, nil
}

var streamLoop = &workload{
	name: "stream_loop",
	why: "journal append and fsync, stream, GroupIndex row inserts and deletes and risk rescoring dominate; " +
		"the kill and restart reads the same journal back, so a write-path gain paid for at recovery shows",
	primary:   "append",
	secondary: "release",
	durable:   true,
	flags: func(dir, _ string) ([]string, []string) {
		return []string{"-stream-dir", filepath.Join(dir, "streams")}, nil
	},
	plan:    planStreams,
	warm:    warmStreams,
	prepare: fillStreams,
	// The crash comes after the fill, so the journal recovery replays is the
	// same whatever run length was asked for.
	recoverFirst: true,
	load:         loadStreams,
	recover: func(ctx context.Context, c *cluster, p *plan) (func() error, error) {
		if err := c.restart(ctx); err != nil {
			return nil, err
		}
		return refetchReleases(ctx, c, p)
	},
}

var streamSyncRepl = &workload{
	name: "stream_sync_repl",
	why: "the stream_loop schedule byte for byte against a primary shipping synchronously to a standby, with " +
		"failover as recovery: paired with stream_loop it isolates replica ship, standby fsync, apply and promote",
	primary:   "append",
	secondary: "release",
	durable:   true,
	failover:  true,
	flags: func(dir, standbyBase string) ([]string, []string) {
		return []string{"-stream-dir", filepath.Join(dir, "primary"), "-repl-role", "primary", "-repl-sync", "-repl-peers", standbyBase},
			[]string{"-stream-dir", filepath.Join(dir, "standby"), "-repl-role", "standby"}
	},
	plan:    planStreams,
	warm:    warmStreams,
	prepare: fillStreams,
	load:    loadStreams,
	recover: func(ctx context.Context, c *cluster, p *plan) (func() error, error) {
		promote := op{kind: "promote", method: http.MethodPost, path: "/repl/promote?fence=2"}
		status, _, _, err := call(ctx, c.e.client, c.standby.base, &promote)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("promoting the standby: HTTP %d", status)
		}
		if err := c.standby.waitReady(ctx, c.e.client, 30*time.Second); err != nil {
			return nil, err
		}
		c.serving = c.standby
		return refetchReleases(ctx, c, p)
	},
}
