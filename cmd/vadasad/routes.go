package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"

	"vadasa/internal/govern"
)

// feature names the optional component a route needs. A route whose feature
// this node does not have answers 404, exactly as if it were not registered.
type feature int

const (
	always      feature = iota
	jobsAPI             // -job-dir: the jobs manager
	streamsAPI          // -stream-dir: the stream registry
	replication         // -repl-role: any role
	standbyNode         // -repl-role=standby, promoted or not
)

// route is one row of the route table.
type route struct {
	// pattern is the mux pattern, and the route's name.
	pattern string
	needs   feature
	serve   handlerFunc
	// standby serves the route on an unpromoted standby — the same handler
	// for reads of state the standby holds itself; nil refuses the request
	// there with the standby marker (errStandby).
	standby handlerFunc
	// probe exempts the route from load shedding, the request deadline and
	// the resource scope: an overloaded server is still alive, and an
	// orchestrator deciding whether to route traffic here must be able to
	// ask — especially while the server is saturated.
	probe bool
}

// routes is everything the daemon serves. What a node answers on a row is
// decided per request from its state: 404 without the feature, the standby
// column on an unpromoted standby, the handler otherwise.
var routes = []route{
	{pattern: "GET /healthz", serve: (*server).handleHealthz, standby: (*server).handleHealthz, probe: true},
	{pattern: "GET /readyz", serve: (*server).handleReadyz, standby: (*server).handleReadyz, probe: true},
	{pattern: "GET /measures", serve: (*server).handleMeasures, standby: (*server).handleMeasures},
	{pattern: "POST /categorize", serve: (*server).handleCategorize},
	{pattern: "POST /assess", serve: (*server).handleAssess},
	{pattern: "POST /anonymize", serve: (*server).handleAnonymize},
	{pattern: "POST /explain", serve: (*server).handleExplain},
	{pattern: "POST /lint", serve: (*server).handleLint},
	{pattern: "POST /reason", serve: (*server).handleReason},

	{pattern: "POST /jobs/anonymize", needs: jobsAPI, serve: (*server).handleJobSubmit},
	{pattern: "GET /jobs", needs: jobsAPI, serve: (*server).handleJobList},
	{pattern: "GET /jobs/{id}", needs: jobsAPI, serve: (*server).handleJobStatus},
	{pattern: "GET /jobs/{id}/result", needs: jobsAPI, serve: (*server).handleJobResult},
	{pattern: "POST /jobs/{id}/cancel", needs: jobsAPI, serve: (*server).handleJobCancel},

	// A standby lists and reports its mirrored streams through the same
	// handlers (the replay view stands in for the live stream); release
	// drives the gate on a primary and only re-serves on a standby.
	{pattern: "GET /streams", needs: streamsAPI, serve: (*server).handleStreamList, standby: (*server).handleStreamList},
	{pattern: "GET /stream/{id}/status", needs: streamsAPI, serve: (*server).handleStreamStatus, standby: (*server).handleStreamStatus},
	{pattern: "GET /stream/{id}/release", needs: streamsAPI, serve: (*server).handleStreamRelease, standby: (*server).handleStandbyRelease},
	{pattern: "POST /stream/{id}/append", needs: streamsAPI, serve: (*server).handleStreamAppend},
	{pattern: "POST /stream/{id}/ack", needs: streamsAPI, serve: (*server).handleStreamAck},
	{pattern: "POST /stream/{id}/withdraw", needs: streamsAPI, serve: (*server).handleStreamWithdraw},

	// The ship and promote endpoints exist wherever a standby does; a
	// promoted standby keeps them so a stale primary's shipments are
	// answered with the fencing 409 rather than a 404.
	{pattern: "GET /replstatus", needs: replication, serve: (*server).handleReplStatus, standby: (*server).handleReplStatus},
	{pattern: "POST /repl/ship", needs: standbyNode, serve: (*server).handleReplShip, standby: (*server).handleReplShip},
	{pattern: "POST /repl/promote", needs: standbyNode, serve: (*server).handleReplPromote, standby: (*server).handleReplPromote},
}

// has reports whether this node has feature f right now. An unpromoted
// standby has no write path yet; the jobs and stream APIs it is configured
// for count as present there, so their rows answer with the standby column
// (the marker, or the mirrored reads) rather than 404.
func (s *server) has(f feature) bool {
	wp := s.writePath.Load()
	switch f {
	case jobsAPI:
		if wp == nil {
			return s.cfg.jobDir != ""
		}
		return wp.jobs != nil
	case streamsAPI:
		if wp == nil {
			return s.cfg.streamDir != ""
		}
		return wp.streams != nil
	case replication:
		return s.repl != nil
	case standbyNode:
		return s.repl != nil && s.repl.standby != nil
	}
	return true
}

// unpromoted reports whether the node is a standby that has not been
// promoted: it mirrors, serves reads from the mirrors, and refuses the rest
// with the standby marker. Promotion publishes the write path, which is what
// flips this.
func (s *server) unpromoted() bool {
	return s.repl != nil && s.repl.standby != nil && s.writePath.Load() == nil
}

// newHandler registers the route table on a mux, once, behind panic recovery.
func (s *server) newHandler() http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		rt := &routes[i]
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { s.serve(rt, w, r) })
	}
	return s.withRecovery(mux)
}

// serve answers one request to one route; every request passes through here.
// In order: the feature check; unless the route is a probe, load shedding
// (429 + Retry-After rather than queueing unboundedly), the per-request
// deadline (threaded as a context down to the risk measures, the cycle and
// the reasoning engine, so it bounds the CPU a request can consume) and the
// per-request resource scope (every byte the handlers and the engine reserve
// rolls up to the server budget and is refunded when the response is done);
// then the role check, the handler, and the one place its error becomes a
// response.
func (s *server) serve(rt *route, w http.ResponseWriter, r *http.Request) {
	if !s.has(rt.needs) {
		http.NotFound(w, r)
		return
	}
	if !rt.probe {
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.fail(w, r, fmt.Errorf("%w (%d requests in flight); retry shortly", errAtCapacity, cap(s.inflight)))
				return
			}
		}
		ctx := r.Context()
		if s.cfg.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
			defer cancel()
		}
		if s.govern != nil {
			g := s.govern.Child("request "+r.URL.Path, govern.Limits{})
			defer g.Close()
			ctx = govern.With(ctx, g)
		}
		r = r.WithContext(ctx)
	}
	handle := rt.serve
	if s.unpromoted() {
		handle = rt.standby
	}
	err := errStandby
	if handle != nil {
		err = handle(s, w, r)
	}
	if err != nil {
		s.fail(w, r, err)
	}
}

// trackingWriter wraps the ResponseWriter so fail can tell whether a handler
// already started streaming a response.
type trackingWriter struct {
	http.ResponseWriter
	wroteHeader bool
	status      int
}

func (t *trackingWriter) WriteHeader(code int) {
	if t.wroteHeader {
		return
	}
	t.wroteHeader = true
	t.status = code
	t.ResponseWriter.WriteHeader(code)
}

func (t *trackingWriter) Write(b []byte) (int, error) {
	if !t.wroteHeader {
		t.wroteHeader = true
		t.status = http.StatusOK
	}
	return t.ResponseWriter.Write(b)
}

// Unwrap supports http.ResponseController pass-through (deadlines, flush).
func (t *trackingWriter) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// withRecovery turns a panicking handler into a logged 500 instead of a dead
// daemon: one pathological dataset (or a buggy plug-in measure) must not
// take the service down for every other analyst. http.ErrAbortHandler is
// re-raised — it is the sanctioned way to abort a response.
func (s *server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.logf("vadasad: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.fail(tw, r, errors.New("internal error"))
			}
		}()
		next.ServeHTTP(tw, r)
	})
}
