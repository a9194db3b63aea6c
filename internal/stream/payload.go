package stream

import (
	"encoding/json"
	"fmt"
	"strconv"

	"vadasa/internal/anon"
	"vadasa/internal/jsonscan"
	"vadasa/internal/mdb"
)

// attrWire is the journaled schema form; categories travel in their textual
// form (mdb.ParseCategory round-trips them).
type attrWire struct {
	Name     string `json:"name"`
	Category string `json:"category"`
}

// createPayload is the first record of every stream journal. It makes the
// journal self-describing: recovery rebuilds the window schema, the
// threshold and the null semantics from it, and the server rebuilds the
// risk measure from the opaque Meta it journaled at creation.
type createPayload struct {
	Stream    string          `json:"stream"`
	Attrs     []attrWire      `json:"attrs"`
	Threshold float64         `json:"threshold"`
	Semantics string          `json:"semantics"`
	Meta      json.RawMessage `json:"meta,omitempty"`
}

func makeCreatePayload(id string, opts Options) createPayload {
	p := createPayload{
		Stream:    id,
		Threshold: opts.Threshold,
		Semantics: opts.Semantics.String(),
		Meta:      opts.Meta,
	}
	for _, a := range opts.Attrs {
		p.Attrs = append(p.Attrs, attrWire{Name: a.Name, Category: a.Category.String()})
	}
	return p
}

func (p createPayload) attrs() ([]mdb.Attribute, error) {
	out := make([]mdb.Attribute, 0, len(p.Attrs))
	for _, a := range p.Attrs {
		cat, err := mdb.ParseCategory(a.Category)
		if err != nil {
			return nil, fmt.Errorf("stream: journaled schema: %w", err)
		}
		out = append(out, mdb.Attribute{Name: a.Name, Category: cat})
	}
	return out, nil
}

func (p createPayload) semantics() (mdb.Semantics, error) {
	switch p.Semantics {
	case mdb.MaybeMatch.String():
		return mdb.MaybeMatch, nil
	case mdb.StandardNulls.String():
		return mdb.StandardNulls, nil
	}
	return 0, fmt.Errorf("stream: journaled semantics %q unknown", p.Semantics)
}

// batchPayload commits one ingestion batch. Rows carry the raw textual
// cells, exactly as validated — replay re-parses them through the same
// code path the live append used.
type batchPayload struct {
	BatchID string     `json:"batch"`
	Rows    [][]string `json:"rows"`
}

// withdrawPayload removes rows by their window-stable IDs.
type withdrawPayload struct {
	RowIDs []int `json:"rows"`
}

// readBatch and readWithdraw read a record payload in one pass when it is
// in the layout journal.Append writes: json.Marshal's, with no space and
// every key exact and in field order. decode sends any other payload to
// json.Unmarshal, so what decodes, to what and with which error stays
// encoding/json's.
func readBatch(b []byte) (p batchPayload, ok bool) {
	r := payloadReader{b: b}
	ok = r.lit(`{"batch":`) && r.str(&p.BatchID) && r.lit(`,"rows":`) && readList(&r, &p.Rows, r.row) && r.lit("}")
	return p, ok && r.i == len(b)
}

func readWithdraw(b []byte) (p withdrawPayload, ok bool) {
	r := payloadReader{b: b}
	ok = r.lit(`{"rows":`) && readList(&r, &p.RowIDs, r.int) && r.lit("}")
	return p, ok && r.i == len(b)
}

func decode[T any](b []byte, read func([]byte) (T, bool)) (T, error) {
	if p, ok := read(b); ok {
		return p, nil
	}
	var p T
	return p, json.Unmarshal(b, &p)
}

// payloadReader reads b from i on. Each method reports whether what follows
// is what it reads and, when it is, moves past it.
type payloadReader struct {
	b []byte
	i int
}

func (r *payloadReader) lit(s string) bool {
	ok := len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s
	if ok {
		r.i += len(s)
	}
	return ok
}

func (r *payloadReader) str(v *string) (ok bool) {
	*v, r.i, ok = jsonscan.Unquote(r.b, r.i)
	return ok
}

// int reads a JSON value strconv.Atoi reads too: a number with no fraction
// or exponent, in int's range.
func (r *payloadReader) int(v *int) bool {
	s := jsonscan.Scanner{B: r.b, I: r.i}
	if !s.Value() {
		return false
	}
	n, err := strconv.Atoi(string(r.b[r.i:s.I]))
	if err == nil {
		*v, r.i = n, s.I
	}
	return err == nil
}

func (r *payloadReader) row(v *[]string) bool { return readList(r, v, r.str) }

// readList reads null, which decodes to a nil slice, or an array of elements
// elem reads, which decodes to a slice that is not nil.
func readList[T any](r *payloadReader, v *[]T, elem func(*T) bool) bool {
	if r.lit("null") {
		return true
	}
	if !r.lit("[") {
		return false
	}
	*v = make([]T, 0, 8) // a row's cells in one allocation
	for sep := ""; !r.lit("]"); sep = "," {
		var zero T
		if *v = append(*v, zero); !r.lit(sep) || !elem(&(*v)[len(*v)-1]) {
			return false
		}
	}
	return true
}

// anonPayload commits one release-gate suppression iteration: the batch of
// decisions a single risk evaluation motivated. Journaled before the next
// evaluation, so a crash mid-gate resumes from a committed prefix of the
// suppression sequence.
type anonPayload struct {
	Release   int                   `json:"release"`
	Iteration int                   `json:"iter"`
	Decisions []anon.DecisionRecord `json:"decisions"`
}

// intentPayload declares a release before its bytes exist on disk: the
// sequence number, the window size, and the SHA-256 of the exact CSV to be
// published. Recovery after a crash between intent and publish regenerates
// the bytes from the replayed window and refuses to publish on a digest
// mismatch — the intent is a promise of specific bytes, not of "whatever
// the window looks like now".
type intentPayload struct {
	Release int    `json:"release"`
	Rows    int    `json:"rows"`
	Digest  string `json:"digest"`
}

// publishPayload commits a publication: the named file is durable and
// carries the intent's digest.
type publishPayload struct {
	Release int    `json:"release"`
	File    string `json:"file"`
	Digest  string `json:"digest"`
}

// ackPayload retires a published release.
type ackPayload struct {
	Release int `json:"release"`
}

// checkpointPayload marks a clean drain with counter snapshots; recovery
// cross-checks them against the replayed state.
type checkpointPayload struct {
	Batches  int `json:"batches"`
	Rows     int `json:"rows"`
	Releases int `json:"releases"`
	Acked    int `json:"acked"`
}
