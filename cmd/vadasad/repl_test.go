package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vadasa/internal/replica"
)

// replPair is a primary daemon and a standby daemon built the way main
// builds them under -repl-role, shipping over a real HTTP listener so the
// transport, the /repl/ship handler and the body limits are all exercised.
type replPair struct {
	ph, sh http.Handler
	sb     *replica.Standby
	pNode  *replica.Node
}

func newReplPair(t *testing.T, sync bool) *replPair {
	t.Helper()
	// Standby side first: the primary needs its listener address.
	scfg := testConfig(t)
	scfg.replRole, scfg.streamDir = "standby", t.TempDir()
	standby := startServer(t, scfg)
	ts := httptest.NewServer(standby.handler)
	t.Cleanup(ts.Close)

	pcfg := testConfig(t)
	pcfg.replRole, pcfg.replPeers, pcfg.replSync, pcfg.streamDir = "primary", ts.URL, sync, t.TempDir()
	primary := startServer(t, pcfg)

	return &replPair{
		ph: primary.handler, sh: standby.handler,
		sb: standby.repl.standby, pNode: primary.repl.node,
	}
}

func waitRepl(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// An async pair: the standby mirrors appends and releases, serves the
// published release and stream status read-only with a standby marker, and
// rejects writes with 503 + Retry-After so clients can tell "wrong node"
// from "overloaded node".
func TestReplStandbyMirrorsAndServesReads(t *testing.T) {
	c := newReplPair(t, false)

	if rec := do(t, c.ph, "POST", appendURL("s1", "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, c.ph, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("release status = %d: %s", rec.Code, rec.Body)
	}
	var before releaseBody
	decodeBody(t, rec.Body.Bytes(), &before)

	waitRepl(t, "standby to mirror the release", func() bool {
		f := c.sb.Follower("stream/s1")
		return f != nil && f.Published() != nil
	})

	var list struct {
		Streams []string `json:"streams"`
		Standby bool     `json:"standby"`
	}
	decodeBody(t, do(t, c.sh, "GET", "/streams", "").Body.Bytes(), &list)
	if len(list.Streams) != 1 || list.Streams[0] != "s1" || !list.Standby {
		t.Fatalf("standby stream list %+v", list)
	}

	rec = do(t, c.sh, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("standby release status = %d: %s", rec.Code, rec.Body)
	}
	var mirrored releaseBody
	decodeBody(t, rec.Body.Bytes(), &mirrored)
	if !mirrored.Standby || mirrored.CSV != before.CSV || mirrored.Release.Digest != before.Release.Digest {
		t.Fatalf("standby release does not match the primary's:\nprimary %+v\nstandby %+v", before.Release, mirrored.Release)
	}

	var st struct {
		Standby bool `json:"standby"`
		Rows    int  `json:"rows"`
	}
	decodeBody(t, do(t, c.sh, "GET", "/stream/s1/status", "").Body.Bytes(), &st)
	if !st.Standby || st.Rows != 4 {
		t.Fatalf("standby status %+v", st)
	}

	// Writes are refused with an explicit standby marker.
	rec = do(t, c.sh, "POST", appendURL("s1", "b2"), streamCSV(4, 2))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("standby append status = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatalf("standby rejection carries no Retry-After")
	}
	var rej struct {
		Error   string `json:"error"`
		Standby bool   `json:"standby"`
	}
	decodeBody(t, rec.Body.Bytes(), &rej)
	if !rej.Standby || rej.Error == "" {
		t.Fatalf("standby rejection body %+v", rej)
	}

	// /readyz on a healthy standby is 200 with the standby marker.
	rec = do(t, c.sh, "GET", "/readyz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"standby":true`) {
		t.Fatalf("standby readyz = %d: %s", rec.Code, rec.Body)
	}

	var rstat struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	decodeBody(t, do(t, c.ph, "GET", "/replstatus", "").Body.Bytes(), &rstat)
	if rstat.Role != "primary" || rstat.Epoch != 1 {
		t.Fatalf("primary replstatus %+v", rstat)
	}
	decodeBody(t, do(t, c.sh, "GET", "/replstatus", "").Body.Bytes(), &rstat)
	if rstat.Role != "standby" {
		t.Fatalf("standby replstatus %+v", rstat)
	}

	if d := c.sb.Diverged(); len(d) != 0 {
		t.Fatalf("standby diverged: %v", d)
	}
}

// The HTTP failover path: a synchronously replicated primary publishes a
// release and disappears; POST /repl/promote fences the standby into the
// primary role, its recovery re-serves the very same release byte for byte
// (exactly once), the full API replaces the read-only one in place, and the
// demoted primary's subsequent writes are rejected with the fencing 503.
func TestReplPromoteFailoverHTTP(t *testing.T) {
	c := newReplPair(t, true)

	if rec := do(t, c.ph, "POST", appendURL("s1", "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, c.ph, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("release status = %d: %s", rec.Code, rec.Body)
	}
	var before releaseBody
	decodeBody(t, rec.Body.Bytes(), &before)

	// Synchronous commit: the publish record is already durable on the
	// standby when the release returns.
	waitRepl(t, "standby to mirror the release", func() bool {
		f := c.sb.Follower("stream/s1")
		return f != nil && f.Published() != nil
	})

	// The primary "dies" here: nothing more is sent through c.ph until the
	// demotion checks below.
	rec = do(t, c.sh, "POST", "/repl/promote", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("promote status = %d: %s", rec.Code, rec.Body)
	}
	var prom struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
		Streams  int    `json:"streams"`
	}
	decodeBody(t, rec.Body.Bytes(), &prom)
	if !prom.Promoted || prom.Epoch != 2 || prom.Streams != 1 {
		t.Fatalf("promote result %+v", prom)
	}

	// The promoted node re-serves the primary's release byte-identical.
	rec = do(t, c.sh, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("promoted release status = %d: %s", rec.Code, rec.Body)
	}
	var after releaseBody
	decodeBody(t, rec.Body.Bytes(), &after)
	if after.CSV != before.CSV || after.Release.Digest != before.Release.Digest || after.Release.Seq != before.Release.Seq {
		t.Fatalf("promoted release differs from the primary's:\nprimary %+v\npromoted %+v", before.Release, after.Release)
	}
	if after.Standby {
		t.Fatalf("promoted node still marks responses standby")
	}

	// Exactly once: re-served unchanged until acked, then retired — the
	// next release is a new sequence, proving the write path is live.
	var again releaseBody
	decodeBody(t, do(t, c.sh, "GET", "/stream/s1/release", "").Body.Bytes(), &again)
	if again.Release.Seq != before.Release.Seq || again.Release.Digest != before.Release.Digest {
		t.Fatalf("re-served release changed: %+v", again.Release)
	}
	if rec = do(t, c.sh, "POST", "/stream/s1/ack?seq=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("ack on promoted node = %d: %s", rec.Code, rec.Body)
	}
	decodeBody(t, do(t, c.sh, "GET", "/stream/s1/release", "").Body.Bytes(), &again)
	if again.Release == nil || again.Release.Seq != 2 {
		t.Fatalf("post-ack release %+v, want seq 2", again.Release)
	}

	// The promoted node keeps /repl/ship mounted so the stale primary's
	// shipments get the fencing 409, not a 404.
	rec = do(t, c.sh, "POST", "/repl/ship", `{"primary":"p1","epoch":1}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale ship status = %d: %s", rec.Code, rec.Body)
	}

	// The old primary demotes itself the moment a shipment is fenced.
	waitRepl(t, "primary demotion", func() bool { return c.pNode.FenceCheck() != nil })

	rec = do(t, c.ph, "POST", appendURL("s1", "b2"), streamCSV(4, 2))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("demoted append status = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") != "5" {
		t.Fatalf("demoted append Retry-After = %q", rec.Header().Get("Retry-After"))
	}
	if !strings.Contains(rec.Body.String(), "no longer the primary") {
		t.Fatalf("demoted append body: %s", rec.Body)
	}
	if rec = do(t, c.ph, "GET", "/stream/s1/release", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("demoted release status = %d: %s", rec.Code, rec.Body)
	}

	var rstat struct {
		Role    string `json:"role"`
		Epoch   uint64 `json:"epoch"`
		Granted uint64 `json:"granted"`
	}
	decodeBody(t, do(t, c.ph, "GET", "/replstatus", "").Body.Bytes(), &rstat)
	if rstat.Epoch != 2 || rstat.Granted != 1 {
		t.Fatalf("demoted replstatus %+v", rstat)
	}
}
