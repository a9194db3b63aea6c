package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req; Parent
// is the span that caused this one (0 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// layerOf is the package a span is charged to: the name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// tracer keeps spans and counts in memory until the run ends. It is safe for
// concurrent use: replication shippers and job workers record from their own
// goroutines.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	reqs   int
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// scope is an open span; children are begun from it.
type scope struct {
	t   *tracer
	id  int
	req int
}

func (t *tracer) open(parent, req int, name string, start time.Time) scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0))})
	return scope{t: t, id: id, req: req}
}

// request begins the root span of a new request.
func (t *tracer) request(name string) scope {
	t.mu.Lock()
	t.reqs++
	req := t.reqs
	t.mu.Unlock()
	return t.open(0, req, name, time.Now())
}

// begin opens a child span.
func (s scope) begin(name string) scope { return s.t.open(s.id, s.req, name, time.Now()) }

// end closes the span.
func (s scope) end() {
	now := int64(time.Since(s.t.t0))
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = now
	s.t.mu.Unlock()
}

// call times f as a child span.
func (s scope) call(name string, f func() error) error {
	c := s.begin(name)
	defer c.end()
	return f()
}

// record adds a child span after the fact, for calls whose duration the
// layer reports itself (the cycle's per-iteration risk/anonymize split).
func (s scope) record(name string, start time.Time, d time.Duration) {
	c := s.t.open(s.id, s.req, name, start)
	s.t.mu.Lock()
	s.t.spans[c.id-1].End = s.t.spans[c.id-1].Start + int64(d)
	s.t.mu.Unlock()
}

// count accumulates a named count at a layer boundary.
func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another (a
// shipper and a local fsync, say), so the covered part is the union of their
// intervals clipped to the parent, not the sum of their durations.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerSelf sums self time per layer over the spans of the requests whose
// root span is named root, and returns it per request (a mean) with the
// number of requests.
func (t *tracer) layerSelf(root string) (perRequest map[string]time.Duration, requests int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	wanted := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			wanted[s.Req] = true
		}
	}
	perRequest = map[string]time.Duration{}
	if len(wanted) == 0 {
		return perRequest, 0
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if wanted[s.Req] {
			perRequest[layerOf(s.Name)] += self[s.ID]
		}
	}
	for l := range perRequest {
		perRequest[l] /= time.Duration(len(wanted))
	}
	return perRequest, len(wanted)
}

// durations lists the durations, in ms, of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.duration())/float64(time.Millisecond))
		}
	}
	return out
}

// write dumps the trace as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Spans    []span           `json:"spans"`
		Counts   map[string]int64 `json:"counts"`
	}{workload, seed, t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
