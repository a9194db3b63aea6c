// Command vadasad serves the Vada-SA framework over HTTP: the shape a
// Research Data Center deployment takes, where analysts and upstream
// pipelines submit microdata for categorization, risk assessment and
// anonymization without linking the Go library.
//
//	vadasad [-addr :8321] [-kb kb.json] [-request-timeout 30s]
//	        [-read-timeout 10s] [-shutdown-grace 10s]
//	        [-max-inflight 64] [-max-budget 1000000000]
//	        [-max-cells 10000000] [-mem-budget 0] [-disk-headroom 0]
//	        [-job-dir DIR] [-job-workers 2] [-job-retries 3]
//	        [-job-retry-base 100ms] [-job-retry-cap 5s]
//	        [-pprof-addr localhost:6060]
//	        [-shard-workers host:port,...] [-spawn-workers N]
//	        [-worker-bin PATH] [-lease-ttl 10s] [-hedge-after 0]
//	        [-worker-heartbeat 2s] [-require-workers]
//	        [-repl-role primary|standby] [-repl-peers URL,...]
//	        [-repl-sync] [-repl-lag-max N]
//
// Endpoints (all POST bodies are CSV with a header row; attribute categories
// are inferred from the header names and can be overridden with the id/qi/
// weight query parameters, comma-separated):
//
//	GET  /healthz              liveness (exempt from load shedding)
//	GET  /readyz               readiness: 503 while startup recovery is
//	                           replaying job journals or a resource budget
//	                           is saturated; 200 once traffic is welcome
//	GET  /measures             registered risk measures
//	POST /categorize           attribute categorization report (JSON)
//	POST /assess?measure=&k=   risk summary + risky tuple ids (JSON)
//	POST /anonymize?measure=&k=&threshold=&recode=
//	                           anonymized CSV + decision log (JSON)
//	POST /explain?measure=&tuple=
//	                           derivation-tree explanation (JSON)
//
// With -job-dir set, anonymization also runs as durable asynchronous jobs:
// every committed cycle iteration is journaled to an fsync'd write-ahead
// journal in that directory, interrupted jobs are resumed on startup by
// deterministic replay, and transient assessor failures retry with
// exponential backoff (-job-retries, -job-retry-base, -job-retry-cap) on a
// bounded worker pool (-job-workers):
//
//	POST /jobs/anonymize?...   submit (same parameters as /anonymize); 202
//	GET  /jobs                 list jobs, newest first
//	GET  /jobs/{id}            state, attempts, error, outcome counters
//	GET  /jobs/{id}/result     anonymized CSV (409 while running, 410 failed)
//	POST /jobs/{id}/cancel     cancel; terminal across restarts
//
// With -stream-dir set, the daemon also serves crash-consistent streaming
// anonymization (DESIGN.md §13): per-stream ingestion windows whose every
// accepted batch is journaled and fsync'd to a write-ahead log before the
// request is acknowledged, with risk scored when the window is read and
// releases gated on every tuple clearing the threshold, published under an
// intent→publish→ack protocol that survives crashes at any point
// (-stream-max-rows bounds each window; the excess is shed with 429 +
// Retry-After):
//
//	POST /stream/{id}/append?batch=KEY&...
//	                           ingest one CSV batch; creates the stream on
//	                           first contact (measure/threshold/id/qi/weight
//	                           as in /assess); batch= is the idempotency key
//	GET  /stream/{id}/release  gate + publish the window snapshot (exactly
//	                           once; re-served unchanged until acked);
//	                           409 when the gate cannot close
//	POST /stream/{id}/ack?seq= retire a published release
//	POST /stream/{id}/withdraw remove rows by id: {"rowIds": [...]}
//	GET  /stream/{id}/status   rows, batches, releases, risk mode
//	GET  /streams              list open streams
//
// Operational hardening. Every request runs under a wall-clock deadline
// (-request-timeout) threaded as a context.Context down to the risk measures,
// the anonymization cycle and the reasoning engine, so a timed-out or
// abandoned request stops consuming CPU promptly. At most -max-inflight
// requests are served concurrently; the excess is shed instead of queueing
// unboundedly. Request bodies are capped at 64 MiB and decoded CSVs at
// -max-cells rows×columns (0 disables). The reasoning engine's join-work
// budget can be lowered per request with ?budget=N, capped by -max-budget.
// A panicking handler is logged with its stack and the daemon keeps serving.
// -read-timeout bounds how long a client may take to send its request
// (slowloris protection); write and idle timeouts are derived from the
// request timeout. On SIGINT/SIGTERM the listener closes, in-flight requests
// drain for up to -shutdown-grace, then the process exits. Every failure is
// answered as {"error": ...} with the status and Retry-After of one table,
// and what a node serves in each replication role is another: fail.go and
// routes.go, printed in DESIGN.md §18.
//
// Resource governance. -mem-budget caps the estimated bytes the server will
// hold across all requests, jobs and engine evaluations at once (0 =
// unlimited); -disk-headroom is the free-byte floor the job volume must
// retain (0 = disabled). Requests that would overrun answer 503; running
// jobs pause at their last journaled checkpoint and resume automatically
// when pressure clears; /readyz turns not-ready so load balancers steer
// traffic away while the server is saturated.
//
// Distributed execution. With -shard-workers (addresses of running vadasaw
// processes) and/or -spawn-workers (locally spawned, supervised children),
// incremental risk re-scoring fans out to worker processes in row shards,
// one timed call per dispatch (-lease-ttl), with heartbeat liveness, bounded
// retries and optional hedged re-dispatch (-hedge-after; the first valid
// reply wins, the other call is cancelled). Results are bit-identical to
// in-process scoring. When every worker is down the server degrades to
// in-process execution and /readyz reports "degraded" (still 200) — unless
// -require-workers is set, in which case affected requests fail 503 with
// Retry-After and /readyz answers 503. See DESIGN.md §12 and README.md,
// "Sharded risk scoring with vadasaw".
//
// Replication. With -repl-role, a pair of daemons forms a warm-standby
// cluster (DESIGN.md §14): the primary ships every committed stream-WAL and
// job-journal record to its -repl-peers over POST /repl/ship, and standbys
// mirror the bytes verbatim, maintain read-only replay views, and verify
// SHA-256 state digests against the primary's. -repl-sync makes every
// journal append wait for a standby ack (synchronous commit); without it,
// -repl-lag-max bounds how far a standby may fall behind before /readyz
// turns unhealthy. An unpromoted standby answers writes with 503 + a
// standby marker and serves GET /streams, /stream/{id}/release and
// /stream/{id}/status from its mirrors; POST /repl/promote?fence=E fences
// it into the primary role (the fence must outrank every epoch it has
// seen), recovers the mirrored directories through the normal startup path
// — pending release intents complete exactly once — and widens the API in
// place. A demoted primary's subsequent writes fail with a typed fencing
// error (503). GET /replstatus reports role, epochs, lag and divergence.
// See README.md, "Replication & failover".
//
// Profiling. -pprof-addr starts a second, independent listener exposing the
// standard /debug/pprof endpoints (disabled by default; never mounted on the
// service port). Bind it to localhost or a management interface — profiles
// reveal memory contents and timing. See README.md, "Profiling a running
// server".
//
// The server is stateless across requests; the knowledge base is loaded at
// startup.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	cfg := bindFlags(flag.CommandLine)
	flag.Parse()
	srv, err := newServer(*cfg)
	if err != nil {
		log.Fatalf("vadasad: %v", err)
	}

	httpSrv := srv.httpServer()
	errc := make(chan error, 1)
	if cfg.pprofAddr != "" {
		// Profiling lives on its own listener, never on the service port:
		// the service mux stays closed (no DefaultServeMux), so exposure is
		// an explicit operator decision and can be bound to localhost or a
		// management network independently of -addr.
		pprofSrv := newPprofServer(cfg.pprofAddr)
		go func() { errc <- fmt.Errorf("pprof listener: %w", pprofSrv.ListenAndServe()) }()
		srv.logf("vadasad profiling on http://%s/debug/pprof/", cfg.pprofAddr)
	}
	go func() { errc <- httpSrv.ListenAndServe() }()
	srv.logf("vadasad listening on %s (request timeout %s, max in-flight %d)",
		cfg.addr, cfg.requestTimeout, cfg.maxInflight)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("vadasad: %v", err)
	case sig := <-sigc:
		srv.logf("vadasad: received %s, draining in-flight requests (grace %s)", sig, cfg.shutdownGrace)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.shutdownGrace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			srv.logf("vadasad: shutdown did not drain cleanly: %v", err)
			os.Exit(1)
		}
		// Each stream writes its checkpoint record here, on the clean
		// SIGTERM path, after in-flight requests have finished.
		srv.Close()
		srv.logf("vadasad: drained, bye")
	}
}

// findWorkerBin locates the vadasaw binary for -spawn-workers when the
// operator did not pin one: the sibling of this executable first (how release
// tarballs lay the two out), then $PATH. Empty means neither exists.
func findWorkerBin() string {
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "vadasaw")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand
		}
	}
	if p, err := exec.LookPath("vadasaw"); err == nil {
		return p
	}
	return ""
}

// newPprofServer builds the dedicated profiling listener: an explicit mux
// carrying only the net/http/pprof handlers, with the read-side timeouts the
// service listener has. No write timeout — CPU profiles and traces stream
// for as long as ?seconds= asks.
func newPprofServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// httpServer builds the hardened http.Server around the handler stack:
// explicit read/write/idle timeouts so one slow peer cannot hold a
// connection (and its goroutine) forever. The write timeout leaves the
// request deadline room to produce a proper 504 body before the socket is
// closed; no request deadline means no write deadline either.
func (s *server) httpServer() *http.Server {
	var writeTimeout time.Duration
	if s.cfg.requestTimeout > 0 {
		writeTimeout = s.cfg.requestTimeout + 10*time.Second
	}
	return &http.Server{
		Addr:              s.cfg.addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}
