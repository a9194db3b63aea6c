package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vadasa/internal/anon"
	"vadasa/internal/faultfs"
	"vadasa/internal/journal"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

// synthWindow generates a table and returns it twice: as the dataset the
// batch cycle takes — read back from its own CSV, so weights and ids are what
// a stream makes of the same text — and as the rows of one ingestion batch.
func synthWindow(t *testing.T, cfg synth.Config) (*mdb.Dataset, [][]string) {
	t.Helper()
	gen := synth.Generate(cfg)
	var buf bytes.Buffer
	if err := mdb.WriteCSV(&buf, gen); err != nil {
		t.Fatal(err)
	}
	d, err := mdb.ReadCSV(&buf, "ref", gen.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, len(d.Rows))
	for i, r := range d.Rows {
		for _, v := range r.Values {
			rows[i] = append(rows[i], v.String())
		}
	}
	return d, rows
}

// journaledDecisions reads back every decision the anon records of a WAL hold.
func journaledDecisions(t *testing.T, path string) []anon.Decision {
	t.Helper()
	it, err := journal.Records(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []anon.Decision
	for it.Next() {
		rec := it.Record()
		if rec.Type != recAnon {
			continue
		}
		var p anonPayload
		mustUnmarshal(t, rec.Payload, &p)
		ds, err := anon.DecodeDecisions(p.Decisions)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ds...)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// The release gate is the batch cycle at full sweep: for every measure with a
// live view — which scores the window from an index — and every distribution
// family, a stream's first release is byte for byte the CSV of
// anon.RunContext over the same rows and ids with BatchFraction 1 and the
// gate's suppressor, and the journaled anon records are that run's decision
// log. (The first row of the cross-mode table, ROADMAP item 4a.)
func TestGateIsTheCycleAtFullSweep(t *testing.T) {
	ctx := context.Background()
	measures := []struct {
		name      string
		assessor  risk.Assessor
		threshold float64
	}{
		{"k-anonymity", risk.KAnonymity{K: 3}, 0.5},
		{"re-identification", risk.ReIdentification{}, 0.05},
		{"individual-risk", risk.IndividualRisk{}, 0.05},
		{"l-diversity", risk.LDiversity{L: 2, Sensitive: "ResidentialRevenue"}, 0.5},
		{"t-closeness", risk.TCloseness{T: 0.3, Sensitive: "ResidentialRevenue"}, 0.5},
	}
	for _, m := range measures {
		for _, dist := range []synth.Dist{synth.DistW, synth.DistU, synth.DistV} {
			t.Run(fmt.Sprintf("%s/%s", m.name, dist), func(t *testing.T) {
				d, rows := synthWindow(t, synth.Config{Tuples: 3000, QIs: 4, Dist: dist, Seed: 23})
				want, err := anon.RunContext(ctx, d, anon.Config{
					Assessor:      m.assessor,
					Threshold:     m.threshold,
					Anonymizer:    anon.LocalSuppression{},
					Semantics:     mdb.MaybeMatch,
					BatchFraction: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Decisions) == 0 || len(want.Residual) > 0 {
					t.Fatalf("cycle made %d decisions, left %d residual; the test proves nothing", len(want.Decisions), len(want.Residual))
				}
				var wantCSV bytes.Buffer
				if err := mdb.WriteCSV(&wantCSV, want.Dataset); err != nil {
					t.Fatal(err)
				}

				dir := t.TempDir()
				s := openTest(t, dir, Options{Assessor: m.assessor, Threshold: m.threshold, Semantics: mdb.MaybeMatch, Attrs: d.Attrs})
				defer s.Close(ctx)
				if _, err := s.Append(ctx, "b1", rows); err != nil {
					t.Fatal(err)
				}
				if mode := s.Status(ctx).Mode; mode != "incremental" {
					t.Fatalf("the window is scored in mode %q, want incremental", mode)
				}
				info, err := s.Release(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.ReleaseBytes(info)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantCSV.Bytes()) {
					t.Fatalf("release differs from the cycle's output (%d suppressions vs %d decisions)", info.Suppressions, len(want.Decisions))
				}
				log := journaledDecisions(t, filepath.Join(dir, "tst.wal"))
				if len(log) != len(want.Decisions) {
					t.Fatalf("journal holds %d decisions, the cycle made %d", len(log), len(want.Decisions))
				}
				for i := range log {
					if log[i] != want.Decisions[i] {
						t.Fatalf("decision %d: journaled %+v, cycle %+v", i, log[i], want.Decisions[i])
					}
				}
			})
		}
	}
}

// pollCtx is a context that reports cancellation from its nth Err call on —
// the release gate polls Err between steps, so a cut can be placed inside an
// iteration without a second goroutine. n == 0 never cancels.
type pollCtx struct {
	context.Context
	polls, n int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.n > 0 && c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// A gate iteration that cannot be committed is rolled back in the running
// process: after the fsync of the second anon record fails, or the context
// ends between two steps of the second iteration, the window, the null
// allocator and the risk view stand exactly where the first record left them
// — the state a reopen of the journal replays to — and a second Release
// publishes the bytes of an undisturbed run.
func TestGateRollsBackUncommittedIteration(t *testing.T) {
	_, rows := synthWindow(t, synth.Config{Tuples: 600, QIs: 4, Dist: synth.DistV, Seed: 23})
	opts := Options{Assessor: risk.KAnonymity{K: 3}, Threshold: 0.5, Semantics: mdb.MaybeMatch, Attrs: synth.Generate(synth.Config{QIs: 4}).Attrs}

	// The control also measures where the second iteration's step loop sits
	// in the sequence of context polls: its last polls before the record is
	// committed are the ones between steps.
	bg := context.Background()
	var commitPolls []int
	probe := &pollCtx{Context: bg}
	control := opts
	control.OnAppend = func(seq int, line []byte) error {
		if bytes.Contains(line, []byte(`"type":"anon"`)) {
			commitPolls = append(commitPolls, probe.polls)
		}
		return nil
	}
	cs := openTest(t, t.TempDir(), control)
	defer cs.Close(bg)
	if _, err := cs.Append(bg, "b1", rows); err != nil {
		t.Fatal(err)
	}
	info, err := cs.Release(probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cs.ReleaseBytes(info)
	if err != nil {
		t.Fatal(err)
	}
	if len(commitPolls) < 2 || commitPolls[1]-commitPolls[0] < 8 {
		t.Fatalf("control gate committed anon records at polls %v; need two iterations of several steps", commitPolls)
	}

	cuts := map[string]func(*faultfs.Faulty) context.Context{
		"fsync": func(f *faultfs.Faulty) context.Context {
			f.FailSync(2) // the gate's second anon record
			return bg
		},
		"cancel": func(*faultfs.Faulty) context.Context {
			return &pollCtx{Context: bg, n: commitPolls[1] - 2}
		},
	}
	for name, arm := range cuts {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			faulty := faultfs.NewFaulty(faultfs.OS)
			o := opts
			o.FS = faulty
			s := openTest(t, dir, o)
			defer s.Close(bg)
			if _, err := s.Append(bg, "b1", rows); err != nil {
				t.Fatal(err)
			}
			_, err := s.Release(arm(faulty))
			var closed *GateClosedError
			if err == nil || errors.As(err, &closed) {
				t.Fatalf("release err = %v, want the injected failure", err)
			}
			if n := len(journaledDecisions(t, filepath.Join(dir, "tst.wal"))); n == 0 {
				t.Fatal("no anon record was committed before the cut; the test proves nothing")
			}

			// What the journal holds is what a reopen replays to.
			replayDir := t.TempDir()
			wal, err := os.ReadFile(filepath.Join(dir, "tst.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(replayDir, "tst.wal"), wal, 0o644); err != nil {
				t.Fatal(err)
			}
			replayed := openTest(t, replayDir, opts)
			defer replayed.Close(bg)

			live, err := s.Digest(bg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := replayed.Digest(bg)
			if err != nil {
				t.Fatal(err)
			}
			if !live.Equal(ref) {
				t.Fatalf("window after the rolled-back iteration %+v, journal replays to %+v", live, ref)
			}
			if got, want := s.d.Nulls.Count(), replayed.d.Nulls.Count(); got != want {
				t.Fatalf("null allocator stands at %d, journal replays to %d", got, want)
			}
			if got, want := s.Status(bg).OverThreshold, replayed.Status(bg).OverThreshold; got != want || got == 0 {
				t.Fatalf("%d tuples over threshold, journal replays to %d", got, want)
			}

			info, err := s.Release(bg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.ReleaseBytes(info)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("release after the rolled-back iteration differs from the undisturbed control")
			}
		})
	}
}

// An anon payload copied out of a WAL written before the decision record
// moved to package anon: same bytes in, same bytes out.
func TestAnonPayloadGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "anon", "testdata", "anon_payload.json"))
	if err != nil {
		t.Fatal(err)
	}
	var p anonPayload
	mustUnmarshal(t, golden, &p)
	decisions, err := anon.DecodeDecisions(p.Decisions)
	if err != nil || len(decisions) == 0 {
		t.Fatalf("golden anon payload: %d decisions, %v", len(decisions), err)
	}
	p.Decisions = anon.EncodeDecisions(decisions)
	if again, _ := json.Marshal(p); !bytes.Equal(again, golden) {
		t.Fatalf("golden anon payload re-encodes to\n%s\nwant\n%s", again, golden)
	}
}
