package main

import (
	"flag"
	"time"

	"vadasa"
	"vadasa/internal/dist"
	"vadasa/internal/faultfs"
)

// config is everything newServer needs: one field per command-line flag,
// holding the flag's default until the flag is given, so the defaults exist
// in one place and a zero in a numeric field means what the flag's help says
// zero means.
type config struct {
	addr, kbPath, pprofAddr                    string
	requestTimeout, readTimeout, shutdownGrace time.Duration
	maxInflight                                int
	maxBudget, maxCells                        int64
	memBudget, diskHeadroom                    int64

	jobDir                    string
	jobWorkers, jobRetries    int
	jobRetryBase, jobRetryCap time.Duration

	shardWorkers, workerBin               string
	spawnWorkers                          int
	leaseTTL, hedgeAfter, workerHeartbeat time.Duration
	requireWorkers                        bool

	streamDir     string
	streamMaxRows int

	replRole, replPeers string
	replSync            bool
	replLagMax          int

	// No flag sets the fields below; tests do.

	// maxBody caps a request body in bytes.
	maxBody int64
	// logf receives every operational log line of the server and of the
	// components it builds; nil means log.Printf.
	logf func(format string, args ...any)
	// extraMeasures registers fault-injection measures (slow, panicking)
	// without widening the production query surface.
	extraMeasures map[string]func() vadasa.RiskMeasure
	// fs is the filesystem job journals, spooled inputs and outputs go
	// through; nil means the real one.
	fs faultfs.FS
	// jobPauseProbe is how often paused jobs re-check for pressure to
	// clear; zero means the jobs package's default.
	jobPauseProbe time.Duration
	// supervisor, when set, is used (and closed) instead of one built from
	// the worker flags: test-speed timings over fault-injecting transports.
	supervisor *dist.Supervisor
}

// bindFlags registers every vadasad flag on fs and returns the config the
// flags fill in. It is the only home of flag names, defaults and help texts.
func bindFlags(fs *flag.FlagSet) *config {
	c := &config{maxBody: 64 << 20}
	fs.StringVar(&c.addr, "addr", ":8321", "listen address")
	fs.StringVar(&c.kbPath, "kb", "", "knowledge-base JSON to load at startup")
	fs.DurationVar(&c.requestTimeout, "request-timeout", 30*time.Second,
		"per-request wall-clock deadline (0 disables)")
	fs.DurationVar(&c.readTimeout, "read-timeout", 10*time.Second,
		"maximum time to read a request, header and body included")
	fs.DurationVar(&c.shutdownGrace, "shutdown-grace", 10*time.Second,
		"how long in-flight requests may drain after SIGINT/SIGTERM")
	fs.IntVar(&c.maxInflight, "max-inflight", 64,
		"maximum concurrently served requests; the excess gets 429 (0 disables shedding)")
	// The default matches the engine's own MaxWork: clients may lower the
	// join budget per request, never raise it past the server cap.
	fs.Int64Var(&c.maxBudget, "max-budget", 1_000_000_000,
		"ceiling for the per-request ?budget= reasoning work budget")
	// Ten million cells is far beyond any interactive dataset but well below
	// what would stall the categorizer and the risk measures.
	fs.Int64Var(&c.maxCells, "max-cells", 10_000_000,
		"maximum rows×columns of a decoded CSV; larger datasets get 413 (0 disables)")
	fs.Int64Var(&c.memBudget, "mem-budget", 0,
		"server-wide estimated-memory budget in bytes; saturation 503s new work and pauses jobs (0 = unlimited)")
	fs.Int64Var(&c.diskHeadroom, "disk-headroom", 0,
		"free-byte floor for the job volume; below it journal appends pause their jobs (0 disables)")
	fs.StringVar(&c.jobDir, "job-dir", "",
		"directory for durable anonymization jobs (journals, inputs, outputs); empty disables the /jobs API")
	fs.IntVar(&c.jobWorkers, "job-workers", 2, "concurrent anonymization jobs")
	fs.IntVar(&c.jobRetries, "job-retries", 3, "attempts per job including the first; only transient failures retry")
	fs.DurationVar(&c.jobRetryBase, "job-retry-base", 100*time.Millisecond, "first retry delay; doubles per attempt")
	fs.DurationVar(&c.jobRetryCap, "job-retry-cap", 5*time.Second, "upper bound on the retry delay")
	fs.StringVar(&c.pprofAddr, "pprof-addr", "",
		"listen address for /debug/pprof (e.g. localhost:6060); empty disables profiling entirely")
	fs.StringVar(&c.shardWorkers, "shard-workers", "",
		"comma-separated host:port list of running vadasaw shard workers to fan risk scoring out to")
	fs.IntVar(&c.spawnWorkers, "spawn-workers", 0,
		"number of vadasaw worker processes to spawn and supervise locally")
	fs.StringVar(&c.workerBin, "worker-bin", "",
		"path to the vadasaw binary for -spawn-workers (default: next to this executable, then $PATH)")
	fs.DurationVar(&c.leaseTTL, "lease-ttl", 10*time.Second,
		"per-dispatch lease: a worker silent past this is presumed dead and the shard is retried elsewhere")
	fs.DurationVar(&c.hedgeAfter, "hedge-after", 0,
		"re-dispatch a shard to a second worker after this long without a reply; first admitted reply wins (0 disables)")
	fs.DurationVar(&c.workerHeartbeat, "worker-heartbeat", 2*time.Second,
		"interval between worker liveness probes")
	fs.BoolVar(&c.requireWorkers, "require-workers", false,
		"refuse the in-process fallback: with no healthy workers, requests fail 503 instead of degrading")
	fs.StringVar(&c.streamDir, "stream-dir", "",
		"directory for crash-consistent streaming anonymization (one WAL + release files per stream); empty disables the /stream API")
	fs.IntVar(&c.streamMaxRows, "stream-max-rows", 0,
		"per-stream in-memory window bound; appends beyond it get 429 (0 = 100000)")
	fs.StringVar(&c.replRole, "repl-role", "",
		"replication role: primary (ships journals to -repl-peers) or standby (mirrors a primary, read-only until promoted); empty disables replication")
	fs.StringVar(&c.replPeers, "repl-peers", "",
		"comma-separated base URLs (http://host:port) of standby peers to ship journals to; required with -repl-role=primary")
	fs.BoolVar(&c.replSync, "repl-sync", false,
		"synchronous commit: every journal append waits until a standby has acknowledged the record durably (fails the write after a timeout)")
	fs.IntVar(&c.replLagMax, "repl-lag-max", 0,
		"un-acked shipped-record count above which /readyz reports the primary unhealthy; async mode's safety valve (0 disables)")
	return c
}
