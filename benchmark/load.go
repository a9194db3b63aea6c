package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// numClients is the closed-loop client count: callers of this system wait for
// the reply before sending their next request, and the benchmark machine has
// two cores.
const numClients = 2

// op is one request of a schedule.
type op struct {
	kind   string // latency class, e.g. "assess"
	key    string // identity of the distinct request; selects its output check
	method string
	path   string // with query
	body   []byte
	rows   int // input rows the request carries, credited when it succeeds

	// What the request is about, for the in-process replay of the same
	// request: the table, the measure and, for /explain, the tuple.
	t     *table
	m     measureSpec
	tuple int
}

// digestOps hashes the request bytes of a schedule in order: the same seed
// must give the same digest, byte for byte.
func digestOps(h io.Writer, ops []op) {
	for _, o := range ops {
		fmt.Fprintf(h, "%s %s %d\n", o.method, o.path, len(o.body))
		h.Write(o.body)
	}
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * numClients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a short read only costs the connection reuse
	resp.Body.Close()
}

// call sends one request and reads the whole response. The duration runs
// from just before the request is written to just after the last body byte
// is read — what the caller waits for.
func call(ctx context.Context, c *http.Client, base string, o *op) (status int, body []byte, d time.Duration, err error) {
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	body, err = io.ReadAll(resp.Body)
	d = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, body, d, err
}

// reply is what a recorder keeps of a response for the output checks, which
// run after the measured phase so that they do not compete with the daemon
// for the two cores.
type reply struct {
	key  string
	sum  [sha256.Size]byte
	body []byte // nil when an identical reply for the key is already kept
}

// recorder collects one client's observations; clients never share one.
type recorder struct {
	// lat holds latencies in ms by class (op.kind) and, within a class, by
	// distinct request (op.key): the requests of a class differ in cost by an
	// order of magnitude, so each is summarised on its own before the class is.
	lat       map[string]map[string][]float64
	attempted int
	failed    int
	shed      int // 429 and 503 replies, a subset of failed
	rows      int64
	replies   []reply
	firstSum  map[string][sha256.Size]byte
	firstErr  error // first failure, for the report
}

func newRecorder() *recorder {
	return &recorder{lat: map[string]map[string][]float64{}, firstSum: map[string][sha256.Size]byte{}}
}

// observe files a latency under its class and distinct request; a class whose
// requests are all alike (a stream's appends) is its own single key.
func (r *recorder) observe(kind, key string, d time.Duration) {
	if key == "" {
		key = kind
	}
	if r.lat[kind] == nil {
		r.lat[kind] = map[string][]float64{}
	}
	r.lat[kind][key] = append(r.lat[kind][key], float64(d)/float64(time.Millisecond))
}

// class returns every latency of a class, whatever the request.
func (r *recorder) class(kind string) []float64 {
	var out []float64
	for _, v := range r.lat[kind] {
		out = append(out, v...)
	}
	return out
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// keep stores a reply for later checking. Replies to the same distinct
// request are byte-identical unless the daemon is non-deterministic, so only
// the first body per key and any that differ from it are retained.
func (r *recorder) keep(key string, body []byte) {
	sum := sha256.Sum256(body)
	first, seen := r.firstSum[key]
	if !seen {
		r.firstSum[key] = sum
	}
	rep := reply{key: key, sum: sum}
	if !seen || first != sum {
		rep.body = body
	}
	r.replies = append(r.replies, rep)
}

// do runs one op: it records the latency under o.kind, counts the attempt,
// and on any status outside 2xx counts a failure. The body is returned for
// ops whose reply steers the client (stream row ids, job ids).
func (r *recorder) do(ctx context.Context, c *http.Client, base string, o *op) ([]byte, bool) {
	r.attempted++
	status, body, d, err := call(ctx, c, base, o)
	switch {
	case err != nil:
		r.fail(fmt.Errorf("%s %s: %w", o.method, o.kind, err))
		return nil, false
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		r.shed++
		fallthrough
	case status < 200 || status > 299:
		r.fail(fmt.Errorf("%s %s: HTTP %d", o.method, o.kind, status))
		return nil, false
	}
	r.observe(o.kind, o.key, d)
	r.rows += int64(o.rows)
	return body, true
}

// merged folds per-client recorders into one.
func merged(recs []*recorder) *recorder {
	out := newRecorder()
	for _, r := range recs {
		for kind, keys := range r.lat {
			if out.lat[kind] == nil {
				out.lat[kind] = map[string][]float64{}
			}
			for key, v := range keys {
				out.lat[kind][key] = append(out.lat[kind][key], v...)
			}
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.shed += r.shed
		out.rows += r.rows
		out.replies = append(out.replies, r.replies...)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// runClients runs one function per client concurrently, each with a
// recorder of its own, and waits for all.
func runClients(fn func(client int, rec *recorder)) []*recorder {
	recs := make([]*recorder, numClients)
	for i := range recs {
		recs[i] = newRecorder()
	}
	eachClient(func(client int) { fn(client, recs[client]) })
	return recs
}

// eachClient runs fn once per client concurrently and returns how long the
// slowest took.
func eachClient(fn func(client int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// roundStat is what one round of a measured phase cost: its wall-clock time,
// the CPU time every daemon process of the run consumed during it, and the
// largest resident set a serving daemon was seen with.
type roundStat struct {
	wallS, cpuS, peakRSSMB float64
}

// rssEvery is how often a round samples the daemons' resident sets.
const rssEvery = 25 * time.Millisecond

// peakRSS samples c.rss until stop is closed and then sends the largest
// reading. The kernel's own high-water mark covers the process's whole life
// and cannot be read per round; a request that allocates lasts several
// sampling periods, so little is missed.
func peakRSS(c *cluster, stop <-chan struct{}, peak chan<- float64) {
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	var most float64
	for {
		most = max(most, c.rss())
		select {
		case <-stop:
			peak <- most
			return
		case <-tick.C:
		}
	}
}

// runRounds is the measured phase. A schedule is n identical rounds; in each,
// every client runs step and the round ends when the last client is done, so
// a round is the same work every time and its cost can be compared across
// the run. Clients are idle only while waiting for the other at a round's
// end, which schedules keep short by ending rounds with their cheapest
// requests. About calPauses times per phase, before a round and while the
// daemon is idle, the clients calibrate (see calibrate.go).
func runRounds(c *cluster, n int, step func(round, client int, rec *recorder)) ([]*recorder, []roundStat) {
	recs := make([]*recorder, numClients)
	for i := range recs {
		recs[i] = newRecorder()
	}
	stats := make([]roundStat, 0, n)
	calEvery := max(1, n/calPauses)
	for r := 0; r < n; r++ {
		if r%calEvery == 0 {
			c.cal.pause()
		}
		stop, peak := make(chan struct{}), make(chan float64)
		go peakRSS(c, stop, peak)
		before := c.usage().cpuSeconds
		wall := eachClient(func(client int) { step(r, client, recs[client]) })
		cpu := c.usage().cpuSeconds - before
		close(stop)
		stats = append(stats, roundStat{wallS: wall.Seconds(), cpuS: cpu, peakRSSMB: <-peak})
	}
	return recs, stats
}

// shareOps is a round in which the clients take ops off one shared list,
// each the next unclaimed one when it is free, and run do on it.
func shareOps(ops []op, do func(rec *recorder, o *op)) func(round, client int, rec *recorder) {
	var (
		mu   sync.Mutex
		next = map[int]int{} // round → first unclaimed op
	)
	return func(round, _ int, rec *recorder) {
		for {
			mu.Lock()
			i := next[round]
			next[round]++
			mu.Unlock()
			if i >= len(ops) {
				return
			}
			do(rec, &ops[i])
		}
	}
}

// sendOps sends ops once over the closed-loop clients, untimed: warm-up and
// other traffic outside the measured phase.
func sendOps(ctx context.Context, c *http.Client, base string, ops []op) *recorder {
	step := shareOps(ops, func(rec *recorder, o *op) {
		if body, ok := rec.do(ctx, c, base, o); ok {
			rec.keep(o.key, body)
		}
	})
	return merged(runClients(func(client int, rec *recorder) { step(0, client, rec) }))
}
