package vadasa

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vadasa/internal/anon"
)

// csvOf is d as WriteCSV writes it.
func csvOf(t *testing.T, d *Dataset) string {
	t.Helper()
	var b strings.Builder
	if err := WriteCSV(&b, d); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Every cycle entry that keeps its caller's table — the Framework's three,
// and the anon ones internal/experiments and internal/programs call — leaves
// that table byte for byte as it was: with recoding, resumed from a
// checkpoint and cancelled mid-cycle. AnonymizeInPlace anonymizes the table
// it is handed, returns it as the result's dataset, and releases what the
// copying entries release.
func TestAnonymizeEntriesOwnTheirTables(t *testing.T) {
	f := New()
	table := func() *Dataset { return Generate(GeneratorConfig{Tuples: 600, QIs: 4, Dist: DistV, Seed: 2}) }
	for _, recode := range []bool{false, true} {
		d := table()
		before := csvOf(t, d)
		kept := func(entry string) {
			t.Helper()
			if got := csvOf(t, d); got != before {
				t.Fatalf("recode=%v: %s changed its input", recode, entry)
			}
		}
		var cps []CycleCheckpoint
		opts := CycleOptions{Measure: KAnonymity{K: 2}, Threshold: 0.5, UseRecoding: recode,
			Checkpoint: func(cp CycleCheckpoint) error { cps = append(cps, cp); return nil }}
		want, err := f.Anonymize(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		kept("Anonymize")
		if len(cps) < 2 {
			t.Fatalf("recode=%v: %d iterations, want a cycle a checkpoint can resume", recode, len(cps))
		}
		release := csvOf(t, want.Dataset)
		if release == before {
			t.Fatalf("recode=%v: the cycle changed nothing", recode)
		}
		same := func(entry string, res *CycleResult, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("recode=%v: %s: %v", recode, entry, err)
			}
			if csvOf(t, res.Dataset) != release {
				t.Fatalf("recode=%v: %s released another table", recode, entry)
			}
			kept(entry)
		}
		opts.Checkpoint = nil
		ctx := context.Background()
		res, err := f.AnonymizeContext(ctx, d, opts)
		same("AnonymizeContext", res, err)
		res, err = f.ResumeAnonymizeContext(ctx, d, opts, cps[:1])
		same("ResumeAnonymizeContext", res, err)

		cfg, err := f.cycleConfig(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err = anon.Run(d, cfg)
		same("anon.Run", res, err)
		res, err = anon.RunContext(ctx, d, cfg)
		same("anon.RunContext", res, err)
		res, err = anon.ResumeContext(ctx, d, cfg, cps[:1])
		same("anon.ResumeContext", res, err)

		// Cancelled once the first iteration has changed the working table.
		cctx, cancel := context.WithCancel(ctx)
		opts.Checkpoint = func(CycleCheckpoint) error { cancel(); return nil }
		if _, err := f.AnonymizeContext(cctx, d, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("recode=%v: cancelled cycle returned %v", recode, err)
		}
		kept("a cancelled AnonymizeContext")

		opts.Checkpoint = nil
		in := table()
		res, err = f.AnonymizeInPlace(ctx, in, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dataset != in || csvOf(t, in) != release {
			t.Fatalf("recode=%v: AnonymizeInPlace did not release the table it was handed", recode)
		}
		in = table()
		res, err = f.AnonymizeInPlace(ctx, in, opts, cps[:1])
		if err != nil || res.Dataset != in || csvOf(t, in) != release {
			t.Fatalf("recode=%v: AnonymizeInPlace resumed: %v", recode, err)
		}
	}
}
