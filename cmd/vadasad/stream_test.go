package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vadasa/internal/journal"
	"vadasa/internal/stream"
)

// streamTestServer builds a server with the streaming API enabled over dir.
func streamTestServer(t *testing.T, dir string, maxRows int) *server {
	t.Helper()
	cfg := testConfig(t)
	cfg.streamDir, cfg.streamMaxRows = dir, maxRows
	return startServer(t, cfg)
}

// listStreams returns what GET /streams reports.
func listStreams(t *testing.T, h http.Handler) []string {
	t.Helper()
	var list struct {
		Streams []string `json:"streams"`
	}
	decodeBody(t, do(t, h, "GET", "/streams", "").Body.Bytes(), &list)
	return list.Streams
}

// streamCSV renders n rows starting at row number start. Consecutive pairs
// (even start) share every quasi-identifier value, so a window of complete
// pairs passes k=2 anonymity without any suppression — releases are then
// byte-deterministic, which the recovery test relies on.
func streamCSV(start, n int) string {
	var b strings.Builder
	b.WriteString("Id,Sector,Region,Weight\n")
	for i := 0; i < n; i++ {
		k := (start + i) / 2
		fmt.Fprintf(&b, "c%d,s%d,r%d,%d\n", start+i, k%3, k%2, 10+(start+i)%5)
	}
	return b.String()
}

const streamQuery = "id=Id&qi=Sector,Region&weight=Weight&measure=k-anonymity&k=2"

func appendURL(id, batch string) string {
	return "/stream/" + id + "/append?batch=" + batch + "&" + streamQuery
}

func decodeBody(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
}

func TestStreamLifecycleHTTP(t *testing.T) {
	srv := streamTestServer(t, t.TempDir(), 0)
	h := srv.handler

	// First append creates the stream: 201 with the assigned row ids.
	rec := do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 4))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create append status = %d: %s", rec.Code, rec.Body)
	}
	var app struct {
		Stream    string `json:"stream"`
		RowIDs    []int  `json:"rowIds"`
		Rows      int    `json:"rows"`
		Duplicate bool   `json:"duplicate"`
	}
	decodeBody(t, rec.Body.Bytes(), &app)
	if app.Stream != "s1" || len(app.RowIDs) != 4 || app.Rows != 4 {
		t.Fatalf("append result %+v", app)
	}
	rowIDs := app.RowIDs

	// Retrying the same idempotency key re-acknowledges without re-applying.
	rec = do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 4))
	if rec.Code != http.StatusOK {
		t.Fatalf("duplicate append status = %d: %s", rec.Code, rec.Body)
	}
	decodeBody(t, rec.Body.Bytes(), &app)
	if !app.Duplicate || app.Rows != 4 {
		t.Fatalf("duplicate append result %+v", app)
	}

	rec = do(t, h, "GET", "/stream/s1/status", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body)
	}
	var st struct {
		Rows          int    `json:"rows"`
		Batches       int    `json:"batches"`
		Mode          string `json:"mode"`
		RiskCurrent   bool   `json:"riskCurrent"`
		OverThreshold int    `json:"overThreshold"`
	}
	decodeBody(t, rec.Body.Bytes(), &st)
	if st.Rows != 4 || st.Batches != 1 || st.Mode != "incremental" || !st.RiskCurrent || st.OverThreshold != 0 {
		t.Fatalf("status %+v", st)
	}

	// Release publishes the gated snapshot and serves the bytes.
	rec = do(t, h, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("release status = %d: %s", rec.Code, rec.Body)
	}
	var rel struct {
		Release *stream.ReleaseInfo `json:"release"`
		CSV     string              `json:"csv"`
	}
	decodeBody(t, rec.Body.Bytes(), &rel)
	if rel.Release == nil || rel.Release.Seq != 1 || rel.Release.Rows != 4 {
		t.Fatalf("release %+v", rel.Release)
	}
	if !strings.Contains(rel.CSV, "c0") || !strings.Contains(rel.CSV, "c3") {
		t.Fatalf("release csv missing rows:\n%s", rel.CSV)
	}

	// Unacked, the same release is re-served unchanged.
	rec = do(t, h, "GET", "/stream/s1/release", "")
	var rel2 struct {
		Release *stream.ReleaseInfo `json:"release"`
	}
	decodeBody(t, rec.Body.Bytes(), &rel2)
	if rel2.Release.Seq != 1 || rel2.Release.Digest != rel.Release.Digest {
		t.Fatalf("re-served release %+v, want seq 1 digest %s", rel2.Release, rel.Release.Digest)
	}

	if rec = do(t, h, "POST", "/stream/s1/ack?seq=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("ack status = %d: %s", rec.Code, rec.Body)
	}
	// Re-acking is idempotent.
	if rec = do(t, h, "POST", "/stream/s1/ack?seq=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("re-ack status = %d: %s", rec.Code, rec.Body)
	}

	// Withdraw one of the appended rows, then keep ingesting.
	rec = do(t, h, "POST", "/stream/s1/withdraw", fmt.Sprintf(`{"rowIds":[%d]}`, rowIDs[3]))
	if rec.Code != http.StatusOK {
		t.Fatalf("withdraw status = %d: %s", rec.Code, rec.Body)
	}
	if rec = do(t, h, "POST", appendURL("s1", "b2"), streamCSV(4, 2)); rec.Code != http.StatusOK {
		t.Fatalf("append b2 status = %d: %s", rec.Code, rec.Body)
	}
	decodeBody(t, do(t, h, "GET", "/stream/s1/status", "").Body.Bytes(), &st)
	if st.Rows != 5 || st.Batches != 2 {
		t.Fatalf("status after withdraw+append %+v", st)
	}

	if ids := listStreams(t, h); len(ids) != 1 || ids[0] != "s1" {
		t.Fatalf("streams list %v", ids)
	}
}

// A server restart (drain + fresh process over the same -stream-dir) must
// recover every stream from its WAL: the window, the published-unacked
// release (re-served with the same digest), and the ability to keep
// ingesting — with the measure rebuilt from the journaled parameters alone.
func TestStreamRecoveryHTTP(t *testing.T) {
	dir := t.TempDir()

	srv1 := streamTestServer(t, dir, 0)
	h1 := srv1.handler
	if rec := do(t, h1, "POST", appendURL("s1", "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, h1, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("release status = %d: %s", rec.Code, rec.Body)
	}
	var before struct {
		Release *stream.ReleaseInfo `json:"release"`
		CSV     string              `json:"csv"`
	}
	decodeBody(t, rec.Body.Bytes(), &before)
	srv1.Close() // SIGTERM drain: checkpoint + close every WAL

	h2 := streamTestServer(t, dir, 0).handler
	if ids := listStreams(t, h2); len(ids) != 1 {
		t.Fatalf("recovered streams = %v, want one", ids)
	}

	var st struct {
		Rows     int `json:"rows"`
		Releases int `json:"releases"`
		Acked    int `json:"acked"`
	}
	decodeBody(t, do(t, h2, "GET", "/stream/s1/status", "").Body.Bytes(), &st)
	if st.Rows != 4 || st.Releases != 1 || st.Acked != 0 {
		t.Fatalf("recovered status %+v", st)
	}

	// The unacked release is re-served bit-identically.
	rec = do(t, h2, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered release status = %d: %s", rec.Code, rec.Body)
	}
	var after struct {
		Release *stream.ReleaseInfo `json:"release"`
		CSV     string              `json:"csv"`
	}
	decodeBody(t, rec.Body.Bytes(), &after)
	if after.Release.Seq != 1 || after.Release.Digest != before.Release.Digest || after.CSV != before.CSV {
		t.Fatalf("recovered release differs: %+v vs %+v", after.Release, before.Release)
	}

	if rec = do(t, h2, "POST", "/stream/s1/ack?seq=1", ""); rec.Code != http.StatusOK {
		t.Fatalf("ack after recovery = %d: %s", rec.Code, rec.Body)
	}
	if rec = do(t, h2, "POST", appendURL("s1", "b2"), streamCSV(4, 2)); rec.Code != http.StatusOK {
		t.Fatalf("append after recovery = %d: %s", rec.Code, rec.Body)
	}
}

// A daemon killed between creating <id>.wal and committing its create record
// acknowledged nothing; after the restart the startup scan skips the
// record-less file, and the first append to that id must create the stream
// as if the file had never existed — not fail forever.
func TestStreamIDSurvivesCrashInFirstAppendHTTP(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s1.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	h := streamTestServer(t, dir, 0).handler
	if ids := listStreams(t, h); len(ids) != 0 {
		t.Fatalf("recovered streams = %v, want none", ids)
	}
	if rec := do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
		t.Fatalf("append to the crashed id = %d: %s", rec.Code, rec.Body)
	}
	var st struct {
		Rows int `json:"rows"`
	}
	decodeBody(t, do(t, h, "GET", "/stream/s1/status", "").Body.Bytes(), &st)
	if st.Rows != 4 {
		t.Fatalf("status after the append: %+v", st)
	}
}

// The bounded window sheds excess ingestion with 429 + Retry-After.
func TestStreamWindowFullHTTP(t *testing.T) {
	srv := streamTestServer(t, t.TempDir(), 4)
	h := srv.handler

	if rec := do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 4)); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, h, "POST", appendURL("s1", "b2"), streamCSV(4, 2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-window append status = %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Release + ack drains the window; ingestion resumes.
	if rec := do(t, h, "GET", "/stream/s1/release", ""); rec.Code != http.StatusOK {
		t.Fatalf("release status = %d: %s", rec.Code, rec.Body)
	}
}

// A window the suppressor cannot bring under threshold answers 409: the gate
// stays closed, nothing is published.
func TestStreamGateClosedHTTP(t *testing.T) {
	srv := streamTestServer(t, t.TempDir(), 0)
	h := srv.handler

	// Two fully unique rows under standard-null semantics: suppression can
	// never make them match, so k=2 is unreachable.
	body := "Id,Sector,Region,Weight\nc0,s0,r0,10\nc1,s1,r1,11\n"
	url := appendURL("s1", "b1") + "&semantics=standard"
	if rec := do(t, h, "POST", url, body); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	rec := do(t, h, "GET", "/stream/s1/release", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("gate-closed release status = %d, want 409: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "gate closed") {
		t.Fatalf("409 body does not explain the closed gate: %s", rec.Body)
	}
	var st struct {
		Releases int `json:"releases"`
	}
	decodeBody(t, do(t, h, "GET", "/stream/s1/status", "").Body.Bytes(), &st)
	if st.Releases != 0 {
		t.Fatalf("gate-closed stream published %d releases", st.Releases)
	}
}

func TestStreamValidationHTTP(t *testing.T) {
	srv := streamTestServer(t, t.TempDir(), 0)
	h := srv.handler

	cases := []struct {
		name, method, target, body string
		want                       int
	}{
		{"missing batch key", "POST", "/stream/s1/append?" + streamQuery, streamCSV(0, 2), http.StatusBadRequest},
		{"bad stream id", "POST", appendURL("s%21", "b1"), streamCSV(0, 2), http.StatusBadRequest},
		{"empty body", "POST", appendURL("s1", "b1"), "", http.StatusBadRequest},
		{"header only", "POST", appendURL("s1", "b1"), "Id,Sector,Region,Weight\n", http.StatusBadRequest},
		{"unknown stream status", "GET", "/stream/nope/status", "", http.StatusNotFound},
		{"unknown stream release", "GET", "/stream/nope/release", "", http.StatusNotFound},
		{"unknown stream ack", "POST", "/stream/nope/ack?seq=1", "", http.StatusNotFound},
	}
	for _, c := range cases {
		if rec := do(t, h, c.method, c.target, c.body); rec.Code != c.want {
			t.Errorf("%s: status = %d, want %d: %s", c.name, rec.Code, c.want, rec.Body)
		}
	}

	// A threshold that is no number, or one no risk can exceed, creates
	// nothing: the gate of such a stream would never close.
	for params, want := range map[string]string{"threshold=NaN": `bad threshold parameter \"NaN\"`, "threshold=7": "outside (0,1]"} {
		rec := do(t, h, "POST", appendURL("s1", "b1")+"&"+params, streamCSV(0, 2))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
			t.Errorf("create with %s = %d %s, want 400 saying %s", params, rec.Code, rec.Body, want)
		}
	}
	if ids := listStreams(t, h); len(ids) > 0 {
		t.Fatalf("refused creates left streams %v", ids)
	}

	// Against a live stream: schema drift, null tokens and bad acks.
	if rec := do(t, h, "POST", appendURL("s1", "b1"), streamCSV(0, 2)); rec.Code != http.StatusCreated {
		t.Fatalf("append status = %d: %s", rec.Code, rec.Body)
	}
	liveCases := []struct {
		name, method, target, body string
		want                       int
		says                       string
	}{
		{"wrong column set", "POST", appendURL("s1", "b2"), "Id,Sector,Weight\nc9,s9,10\n", http.StatusBadRequest, ""},
		{"renamed column", "POST", appendURL("s1", "b2"), "Id,Branch,Region,Weight\nc9,s9,r9,10\n", http.StatusBadRequest, ""},
		{"labelled-null cell", "POST", appendURL("s1", "b2"), "Id,Sector,Region,Weight\nc9,*,r9,10\n", http.StatusBadRequest, ""},
		{"bad weight", "POST", appendURL("s1", "b2"), "Id,Sector,Region,Weight\nc9,s9,r9,heavy\n", http.StatusBadRequest, ""},
		{"ack without seq", "POST", "/stream/s1/ack", "", http.StatusBadRequest, "seq query parameter (release sequence) is required"},
		{"ack malformed seq", "POST", "/stream/s1/ack?seq=abc", "", http.StatusBadRequest, `bad seq parameter \"abc\"`},
		{"ack negative seq", "POST", "/stream/s1/ack?seq=-3", "", http.StatusBadRequest, "must be positive, got -3"},
		{"ack unpublished seq", "POST", "/stream/s1/ack?seq=7", "", http.StatusConflict, ""},
		{"withdraw unknown row", "POST", "/stream/s1/withdraw", `{"rowIds":[999]}`, http.StatusBadRequest, ""},
		{"withdraw bad body", "POST", "/stream/s1/withdraw", "nope", http.StatusBadRequest, ""},
	}
	for _, c := range liveCases {
		if rec := do(t, h, c.method, c.target, c.body); rec.Code != c.want || !strings.Contains(rec.Body.String(), c.says) {
			t.Errorf("%s: status = %d, want %d saying %q: %s", c.name, rec.Code, c.want, c.says, rec.Body)
		}
	}
	// None of the rejected appends may have mutated the window.
	var st struct {
		Rows    int `json:"rows"`
		Batches int `json:"batches"`
	}
	decodeBody(t, do(t, h, "GET", "/stream/s1/status", "").Body.Bytes(), &st)
	if st.Rows != 2 || st.Batches != 1 {
		t.Fatalf("rejected appends mutated the window: %+v", st)
	}
}

// Every header spelling in internal/mdb's shared table gives the schema
// recorded there on the synchronous endpoints and as the schema of a stream
// its first append creates — the one the CLI loader is held to as well
// (cmd/vadasa TestLoadCSVHeaderTable).
func TestHeaderTable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "mdb", "testdata", "headers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name   string      `json:"name"`
		CSV    string      `json:"csv"`
		Schema [][2]string `json:"schema"`
	}
	decodeBody(t, raw, &cases)
	srv := streamTestServer(t, t.TempDir(), 0)
	h := srv.handler
	for _, c := range cases {
		rec := do(t, h, "POST", "/categorize", c.CSV)
		var out struct {
			Attributes []struct{ Name, Category string } `json:"attributes"`
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /categorize = %d: %s", c.Name, rec.Code, rec.Body)
		}
		decodeBody(t, rec.Body.Bytes(), &out)
		var got [][2]string
		for _, a := range out.Attributes {
			got = append(got, [2]string{a.Name, a.Category})
		}
		if !reflect.DeepEqual(got, c.Schema) {
			t.Fatalf("%s: /categorize makes %v of the header, want %v", c.Name, got, c.Schema)
		}
		if rec := do(t, h, "POST", "/assess?measure=k-anonymity&k=2", c.CSV); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"tuples":4`) {
			t.Fatalf("%s: /assess = %d: %s", c.Name, rec.Code, rec.Body)
		}

		rec = do(t, h, "POST", "/stream/"+c.Name+"/append?batch=b1&measure=k-anonymity&k=2", c.CSV)
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s: first append = %d: %s", c.Name, rec.Code, rec.Body)
		}
		got = nil
		for _, a := range srv.streams().get(c.Name).Attrs() {
			got = append(got, [2]string{a.Name, a.Category.String()})
		}
		if !reflect.DeepEqual(got, c.Schema) {
			t.Fatalf("%s: stream created with schema %v, want %v", c.Name, got, c.Schema)
		}
		if rec := do(t, h, "POST", "/stream/"+c.Name+"/append?batch=b2", c.CSV); rec.Code != http.StatusOK {
			t.Fatalf("%s: second append = %d: %s", c.Name, rec.Code, rec.Body)
		}
	}
}

// GET /streams lists a primary's streams in sorted order, as a standby lists
// its followers: whether they were created in this process or recovered.
func TestStreamListSortedHTTP(t *testing.T) {
	dir := t.TempDir()
	srv := streamTestServer(t, dir, 0)
	var want []string
	for i := 11; i >= 0; i-- {
		id := fmt.Sprintf("s%02d", i)
		want = append([]string{id}, want...)
		if rec := do(t, srv.handler, "POST", appendURL(id, "b1"), streamCSV(0, 2)); rec.Code != http.StatusCreated {
			t.Fatalf("append to %s = %d: %s", id, rec.Code, rec.Body)
		}
	}
	if ids := listStreams(t, srv.handler); !reflect.DeepEqual(ids, want) {
		t.Fatalf("streams %v, want %v", ids, want)
	}
	srv.Close()
	if ids := listStreams(t, streamTestServer(t, dir, 0).handler); !reflect.DeepEqual(ids, want) {
		t.Fatalf("recovered streams %v, want %v", ids, want)
	}
}

// Streams replay concurrently at start-up, yet recovery reads as if they had
// replayed one after the other: of six journals, one whose replay fails (a
// second batch record, its CRC valid, repeats a batch id) and one whose
// header cannot be read (a first append cut short) are logged in path order
// and kept out of the registry, and the other four are registered whole. The
// broken journal stays as it was, refusing an append to its id; the cut one
// is a stream never created, so an append creates it.
func TestStreamRecoveryConcurrentHTTP(t *testing.T) {
	dir := t.TempDir()
	srv1 := streamTestServer(t, dir, 0)
	ids := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
	for i, id := range ids {
		if rec := do(t, srv1.handler, "POST", appendURL(id, "b1"), streamCSV(0, 2*(i+1))); rec.Code != http.StatusCreated {
			t.Fatalf("append to %s = %d: %s", id, rec.Code, rec.Body)
		}
		if rec := do(t, srv1.handler, "GET", "/stream/"+id+"/release", ""); rec.Code != http.StatusOK {
			t.Fatalf("release of %s = %d: %s", id, rec.Code, rec.Body)
		}
	}
	srv1.Close()

	ctx := context.Background()
	w, err := journal.Open(ctx, filepath.Join(dir, "s2.wal"), journal.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("batch", map[string]any{"batch": "b1", "rows": [][]string{{"c9", "s0", "r0", "10"}}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	broken, err := os.ReadFile(filepath.Join(dir, "s2.wal"))
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "s4.wal")
	header, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, header[:40], 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var lines []string
	cfg := testConfig(t)
	cfg.streamDir = dir
	cfg.logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv2 := startServer(t, cfg)
	h := srv2.handler
	if got := listStreams(t, h); !reflect.DeepEqual(got, []string{"s1", "s3", "s5", "s6"}) {
		t.Fatalf("recovered streams %v", got)
	}
	mu.Lock()
	var failed []string
	for _, l := range lines {
		if strings.HasPrefix(l, "vadasad: stream ") {
			failed = append(failed, l)
		}
	}
	mu.Unlock()
	if len(failed) != 2 || !strings.HasPrefix(failed[0], "vadasad: stream s2: recovery failed, skipping: ") ||
		!strings.Contains(failed[0], `batch "b1" journaled twice`) ||
		!strings.HasPrefix(failed[1], "vadasad: stream s4: unreadable journal header, skipping: ") {
		t.Fatalf("recovery log %q", failed)
	}
	for i, id := range ids {
		if id == "s2" || id == "s4" {
			continue
		}
		var st struct {
			Rows     int `json:"rows"`
			Releases int `json:"releases"`
		}
		decodeBody(t, do(t, h, "GET", "/stream/"+id+"/status", "").Body.Bytes(), &st)
		if st.Rows != 2*(i+1) || st.Releases != 1 {
			t.Fatalf("recovered %s: %+v", id, st)
		}
	}

	if srv2.streams().get("s2") != nil || srv2.streams().get("s4") != nil {
		t.Fatal("a stream that failed recovery is registered")
	}
	if rec := do(t, h, "POST", appendURL("s2", "b2"), streamCSV(0, 2)); rec.Code < 400 {
		t.Fatalf("append over the broken journal = %d: %s", rec.Code, rec.Body)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "s2.wal")); err != nil || !bytes.Equal(after, broken) {
		t.Fatalf("the broken journal changed (%v)", err)
	}
	if rec := do(t, h, "POST", appendURL("s4", "b1"), streamCSV(0, 2)); rec.Code != http.StatusCreated {
		t.Fatalf("append to the cut journal's id = %d: %s", rec.Code, rec.Body)
	}
}

// Recovery under a -mem-budget that fits some recovered windows but not all
// is first-come (DESIGN.md §13.4): which streams open depends on timing. Yet
// every stream refused is logged and left unregistered with its WAL as it
// was, every stream registered is whole, and a refused stream keeps none
// of the budget, even the batches it had replayed before the refusal.
func TestStreamRecoverUnderBudgetIsFirstCome(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir := t.TempDir()
			srv1 := streamTestServer(t, dir, 0)
			ids := []string{"s1", "s2", "s3", "s4", "s5", "s6"}
			for _, id := range ids {
				for b := 0; b < 2; b++ {
					if rec := do(t, srv1.handler, "POST", appendURL(id, fmt.Sprintf("b%d", b)), streamCSV(4*b, 4)); rec.Code >= 300 {
						t.Fatalf("append to %s = %d: %s", id, rec.Code, rec.Body)
					}
				}
				if rec := do(t, srv1.handler, "GET", "/stream/"+id+"/release", ""); rec.Code != http.StatusOK {
					t.Fatalf("release of %s = %d: %s", id, rec.Code, rec.Body)
				}
			}
			srv1.Close()

			// What one window charges, from a recovery the budget does not
			// bind: the six windows are alike.
			cfg := testConfig(t)
			cfg.streamDir, cfg.memBudget = dir, 1<<40
			unbound := startServer(t, cfg)
			window := unbound.govern.Used() / int64(len(ids))
			unbound.Close()
			wals := map[string][]byte{}
			for _, id := range ids {
				b, err := os.ReadFile(filepath.Join(dir, id+".wal"))
				if err != nil {
					t.Fatal(err)
				}
				wals[id] = b
			}

			var mu sync.Mutex
			var lines []string
			cfg.memBudget = 3*window + window/2
			cfg.logf = func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				lines = append(lines, fmt.Sprintf(format, args...))
			}
			srv := startServer(t, cfg)
			registered := listStreams(t, srv.handler)
			if len(registered) == 0 || len(registered) > 3 {
				t.Fatalf("registered %v under a budget of three and a half windows", registered)
			}
			if used := srv.govern.Used(); used != int64(len(registered))*window {
				t.Fatalf("%d streams registered hold %d bytes of the budget, want %d", len(registered), used, int64(len(registered))*window)
			}
			mu.Lock()
			logged := slices.Clone(lines)
			mu.Unlock()
			refused := 0
			for _, id := range ids {
				if slices.Contains(registered, id) {
					var st struct {
						Rows     int `json:"rows"`
						Releases int `json:"releases"`
					}
					decodeBody(t, do(t, srv.handler, "GET", "/stream/"+id+"/status", "").Body.Bytes(), &st)
					if st.Rows != 8 || st.Releases != 1 {
						t.Fatalf("recovered %s: %+v", id, st)
					}
					continue
				}
				refused++
				if !slices.ContainsFunc(logged, func(l string) bool {
					return strings.HasPrefix(l, "vadasad: stream "+id+": recovery failed, skipping: ")
				}) {
					t.Fatalf("refused stream %s not logged: %q", id, logged)
				}
				if srv.streams().get(id) != nil {
					t.Fatalf("refused stream %s is registered", id)
				}
				if after, err := os.ReadFile(filepath.Join(dir, id+".wal")); err != nil || !bytes.Equal(after, wals[id]) {
					t.Fatalf("the WAL of refused stream %s changed (%v)", id, err)
				}
			}
			if n := len(slices.DeleteFunc(logged, func(l string) bool { return !strings.Contains(l, "recovery failed, skipping") })); n != refused {
				t.Fatalf("%d recovery failures logged for %d refused streams", n, refused)
			}
		})
	}
}
