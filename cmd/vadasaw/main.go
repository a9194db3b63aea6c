// Command vadasaw is the Vada-SA shard worker: a small, stateless process
// that scores anonymization risk shards on behalf of a vadasad supervisor
// (internal/dist). It listens on -addr, announces the bound address on
// stdout ("vadasaw listening on HOST:PORT" — the spawn handshake), and
// serves two endpoints:
//
//	POST /task     score one shard (JSON Task in, JSON Reply out)
//	GET  /healthz  liveness for the supervisor's heartbeats
//
//	vadasaw [-addr 127.0.0.1:0] [-hold 0s] [-quiet]
//
// Scoring is a pure function of the shard (risk.GroupScorer), so the
// worker needs no journal, no recovery and no coordination: a crashed or
// killed worker is simply replaced, and a re-delivered task recomputes
// bit-identical values. A reply echoes its task's seq and epoch; the
// supervisor takes it only as the answer of the call that sent that task,
// and abandons a call past its -lease-ttl. -hold injects an artificial per-task delay for
// chaos testing (widening the window for mid-task kills); -quiet drops
// the per-task stderr diagnostics.
package main

import (
	"os"

	"vadasa/internal/dist"
)

func main() {
	os.Exit(dist.WorkerMain(os.Args[1:], os.Stdout))
}
