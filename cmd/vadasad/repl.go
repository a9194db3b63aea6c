package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"vadasa/internal/replica"
	"vadasa/internal/stream"
)

// replState carries the server's replication wiring (-repl-role). Exactly
// one of primary/standby is non-nil.
type replState struct {
	node    *replica.Node
	primary *replica.Primary
	standby *replica.Standby
}

// close stops the shipper or the mirror, then the epoch journal.
func (rs *replState) close() {
	if rs.primary != nil {
		rs.primary.Close()
	}
	if rs.standby != nil {
		rs.standby.Close()
	}
	rs.node.Close()
}

// openReplication wires -repl-role: the epoch journal, then either the
// shipper to -repl-peers or the mirror over -stream-dir and -job-dir (whose
// journals it recovers before the listener opens).
func (s *server) openReplication() error {
	cfg := &s.cfg
	replDir := cfg.streamDir
	if replDir == "" && cfg.jobDir != "" {
		// Keep the epoch journal out of the jobs manager's *.journal
		// glob by giving it its own directory.
		replDir = filepath.Join(cfg.jobDir, "repl")
	}
	if replDir == "" {
		return fmt.Errorf("-repl-role requires -stream-dir or -job-dir; there is nothing to replicate")
	}
	if err := os.MkdirAll(replDir, 0o755); err != nil {
		return fmt.Errorf("-repl-role: %w", err)
	}
	role, ok := map[string]replica.Role{"primary": replica.RolePrimary, "standby": replica.RoleStandby}[cfg.replRole]
	peers := splitList(cfg.replPeers)
	if !ok {
		return fmt.Errorf("unknown -repl-role %q (want primary or standby)", cfg.replRole)
	} else if role == replica.RolePrimary && len(peers) == 0 {
		return fmt.Errorf("-repl-role=primary requires -repl-peers")
	}
	nodeID, _ := os.Hostname()
	if nodeID == "" {
		nodeID = "vadasad"
	}
	node, err := replica.OpenNode(nodeID, filepath.Join(replDir, replica.NodeJournalName), role, nil)
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	s.repl = &replState{node: node}
	if role == replica.RolePrimary {
		opts := replica.PrimaryOptions{Node: node, Sync: cfg.replSync, LagMax: cfg.replLagMax, Logf: s.logf}
		for _, a := range peers {
			opts.Peers = append(opts.Peers, replica.NewHTTPTransport(a, nil))
		}
		if s.repl.primary, err = replica.NewPrimary(opts); err != nil {
			return fmt.Errorf("replication: %w", err)
		}
		s.repl.primary.Start()
		s.logf("vadasad: replication primary %q (epoch %d) shipping to %d peer(s), sync=%v",
			nodeID, node.Epoch(), len(peers), cfg.replSync)
		return nil
	}
	roots := map[string]replica.Root{}
	if cfg.streamDir != "" {
		roots["stream"] = replica.Root{Dir: cfg.streamDir, Ext: ".wal"}
	}
	if cfg.jobDir != "" {
		roots["jobs"] = replica.Root{Dir: cfg.jobDir, Ext: ".journal"}
	}
	s.repl.standby, err = replica.NewStandby(replica.StandbyOptions{
		Node:            node,
		Roots:           roots,
		FollowerOptions: s.streamOptions,
		FollowRoot:      "stream",
		Logf:            s.logf,
	})
	if err != nil {
		return fmt.Errorf("replication: %w", err)
	}
	if err := s.repl.standby.Recover(context.Background()); err != nil {
		return fmt.Errorf("replication: recovering mirrors: %w", err)
	}
	s.logf("vadasad: replication standby %q mirroring into %s (epoch seen %d)", nodeID, replDir, node.Epoch())
	return nil
}

// applyReplStream wires a primary-side stream into the replication layer
// before it opens: the fence check guards every append and publish, and
// the append observer ships each committed record. On a promoted standby
// only the fence applies (it passes — the node holds the highest epoch).
func (s *server) applyReplStream(id, path string, opts *stream.Options) {
	if s.repl == nil {
		return
	}
	opts.FenceCheck = s.repl.node.FenceCheck
	if s.repl.primary != nil {
		opts.OnAppend = s.repl.primary.Hook("stream/"+id, path)
	}
}

// registerReplStream attaches an opened stream's journal tail and digest
// source to the shipper (no-op without a primary shipper).
func (s *server) registerReplStream(st *stream.Stream, path string) {
	if s.repl == nil || s.repl.primary == nil {
		return
	}
	log := "stream/" + st.ID()
	s.repl.primary.Register(log, path, st.JournalSeq(), func(ctx context.Context) (*replica.LogDigest, error) {
		d, err := st.Digest(ctx)
		if err != nil {
			return nil, err
		}
		return &replica.LogDigest{Seq: d.Seq, Rows: d.Rows, Window: d.Window, Risk: d.Risk}, nil
	})
}

// unregisterReplStream detaches a closed stream from the shipper.
func (s *server) unregisterReplStream(id string) {
	if s.repl == nil || s.repl.primary == nil {
		return
	}
	s.repl.primary.Unregister("stream/" + id)
}

// replJobHook is the jobs.Options.JournalHook wiring: every job journal
// ships under the "jobs" root. Nil without a primary shipper.
func (s *server) replJobHook() func(id, path string) func(seq int, line []byte) error {
	if s.repl == nil || s.repl.primary == nil {
		return nil
	}
	return func(id, path string) func(seq int, line []byte) error {
		return s.repl.primary.Hook("jobs/"+id, path)
	}
}

// handleReplShip is the receiver half of the shipping protocol: the
// primary POSTs batched journal frames (and state digests), the standby
// appends + fsyncs them and answers its per-log ack positions. A fencing
// rejection carries the prevailing epoch — the signal that demotes the
// sender.
func (s *server) handleReplShip(w http.ResponseWriter, r *http.Request) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return badRequest(err)
	}
	var req replica.ShipRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return badRequest(fmt.Errorf("decoding shipment: %w", err))
	}
	resp, err := s.repl.standby.HandleShip(r.Context(), &req)
	if err != nil {
		err = &replCallError{err}
		var fe *replica.FencedError
		if errors.As(err, &fe) {
			return &statusError{status: http.StatusConflict, err: err, fields: map[string]any{"epoch": fe.Seen}}
		}
		return err
	}
	return s.writeJSON(w, http.StatusOK, resp)
}

// handleReplPromote fences this standby into the primary role. The fence
// token (?fence=) must outrank every epoch the node has seen; omitted, it
// defaults to seen+1. On success the mirrored directories are recovered
// through the start-up path — pending release intents complete exactly
// once — and the node answers as a primary from then on.
func (s *server) handleReplPromote(w http.ResponseWriter, r *http.Request) error {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	rs := s.repl
	if !s.unpromoted() {
		return conflict(fmt.Errorf("already promoted (epoch %d)", rs.node.Granted()))
	}
	fence := rs.node.Epoch() + 1
	if v := r.URL.Query().Get("fence"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return badRequest(fmt.Errorf("bad fence parameter %q", v))
		}
		fence = n
	}
	if err := rs.standby.Promote(r.Context(), fence); err != nil {
		if replica.IsFenced(err) {
			return &replCallError{err}
		}
		return err
	}
	s.logf("vadasad: promoted to primary under epoch %d", fence)
	// The grant is journaled; the node IS the primary now. Failing recovery
	// is an operator problem, not a reason to un-promote.
	if err := s.openWritePath(); err != nil {
		s.logf("vadasad: promote: %v", err)
	}
	streams := 0
	if reg := s.streams(); reg != nil {
		streams = len(reg.ids())
	}
	return s.writeJSON(w, http.StatusOK, map[string]any{
		"promoted": true, "epoch": fence, "streams": streams,
	})
}

// handleReplStatus exposes the replication state: role, epochs, and the
// side-specific detail (shipping lag and peer acks on a primary; mirrored
// log positions and divergence on a standby).
func (s *server) handleReplStatus(w http.ResponseWriter, r *http.Request) error {
	rs := s.repl
	out := map[string]any{
		"role":    rs.node.Role(),
		"epoch":   rs.node.Epoch(),
		"granted": rs.node.Granted(),
	}
	if rs.primary != nil {
		out["primary"] = rs.primary.Status()
	}
	if rs.standby != nil {
		out["standby"] = rs.standby.Status()
	}
	return s.writeJSON(w, http.StatusOK, out)
}
