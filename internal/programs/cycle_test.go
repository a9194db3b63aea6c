package programs

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vadasa/internal/anon"
	"vadasa/internal/datalog"
	"vadasa/internal/mdb"
	"vadasa/internal/risk"
	"vadasa/internal/synth"
)

func TestSuppressionProgramShape(t *testing.T) {
	p := SuppressionProgram(3)
	// 3 suppression rules + copy rule + 3 flagged rules.
	if len(p.Rules) != 7 {
		t.Fatalf("got %d rules:\n%s", len(p.Rules), p.String())
	}
	if !strings.Contains(p.String(), "not flagged(I)") {
		t.Fatalf("copy rule missing:\n%s", p.String())
	}
}

func TestSuppressionProgramInventsNull(t *testing.T) {
	d := synth.Figure5()
	qi := d.QuasiIdentifiers()
	edb := datalog.NewDatabase()
	TupleFacts(edb, d)
	edb.Add("suppress2", datalog.Num(1)) // tuple 1, Sector (position 2)
	res, err := datalog.Run(SuppressionProgram(len(qi)), edb, nil)
	if err != nil {
		t.Fatal(err)
	}
	facts := res.Facts("tuplenext")
	if len(facts) != len(d.Rows) {
		t.Fatalf("tuplenext has %d facts, want %d", len(facts), len(d.Rows))
	}
	for _, f := range facts {
		id := int(f[0].NumVal())
		if id == 1 {
			if f[2].Kind() != datalog.KNull {
				t.Fatalf("tuple 1 position 2 = %v, want labelled null", f[2])
			}
			if f[1].Kind() == datalog.KNull || f[3].Kind() == datalog.KNull || f[4].Kind() == datalog.KNull {
				t.Fatal("other positions of tuple 1 disturbed")
			}
		} else {
			for _, v := range f[1 : len(f)-1] {
				if v.Kind() == datalog.KNull {
					t.Fatalf("tuple %d got a null without being flagged", id)
				}
			}
		}
	}
}

// The fully declarative cycle must agree with the native cycle run under the
// matching configuration: standard null semantics, schema-order attribute
// choice, full-sweep batches, dataset order.
func TestDeclarativeCycleMatchesNative(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 120, QIs: 3, Dist: synth.DistV, Seed: 19})
	decl, err := DeclarativeCycle(d, 2)
	if err != nil {
		t.Fatalf("DeclarativeCycle: %v", err)
	}
	native, err := anon.Run(d, anon.Config{
		Assessor:      risk.KAnonymity{K: 2},
		Threshold:     0.5,
		Anonymizer:    anon.LocalSuppression{Choice: anon.AttrSchemaOrder},
		Semantics:     mdb.StandardNulls,
		Order:         anon.OrderByID,
		BatchFraction: 1,
	})
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	if decl.NullsInjected != native.NullsInjected {
		t.Fatalf("nulls: declarative %d, native %d", decl.NullsInjected, native.NullsInjected)
	}
	if len(decl.Residual) != len(native.Residual) {
		t.Fatalf("residual: declarative %d, native %d", len(decl.Residual), len(native.Residual))
	}
	// Null positions must coincide row by row.
	for i := range d.Rows {
		for j := range d.Rows[i].Values {
			dn := decl.Dataset.Rows[i].Values[j].IsNull()
			nn := native.Dataset.Rows[i].Values[j].IsNull()
			if dn != nn {
				t.Fatalf("row %d attr %d: declarative null=%v, native null=%v", i, j, dn, nn)
			}
		}
	}
}

func TestDeclarativeCycleConvergesOnSafeData(t *testing.T) {
	// Figure 5 rows 2-5 are 2-anonymous; 1, 6, 7 are not and have no way
	// out under standard semantics: they exhaust and become residual.
	d := synth.Figure5()
	res, err := DeclarativeCycle(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Residual) != 3 {
		t.Fatalf("residual = %v, want 3 tuples", res.Residual)
	}
	if res.NullsInjected != 3*len(d.QuasiIdentifiers()) {
		t.Fatalf("nulls = %d, want full suppression of 3 tuples", res.NullsInjected)
	}
	// The input is untouched.
	if d.NullCount() != 0 {
		t.Fatal("input mutated")
	}
}

func TestDeclarativeCycleValidation(t *testing.T) {
	noQI := mdb.NewDataset("x", []mdb.Attribute{{Name: "A", Category: mdb.NonIdentifying}})
	if _, err := DeclarativeCycle(noQI, 2); err == nil {
		t.Error("dataset without QIs accepted")
	}
}

// declarativeConfig is DeclarativeCycle's configuration with the two seams
// open: the native plug-ins it is differenced against fit the same slots.
func declarativeConfig(a risk.Assessor, step anon.Anonymizer) anon.Config {
	return anon.Config{
		Assessor:      a,
		Threshold:     0.5,
		Anonymizer:    step,
		Semantics:     mdb.StandardNulls,
		Order:         anon.OrderByID,
		BatchFraction: 1,
	}
}

func csvBytes(t *testing.T, d *mdb.Dataset) string {
	t.Helper()
	var b bytes.Buffer
	if err := mdb.WriteCSV(&b, d); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Swapping either seam of the one driver — the risk source, the anonymizer,
// or both — for its declarative twin changes nothing a caller can see:
// dataset bytes, decision log, iteration count, residual.
func TestSeamSwapDifferential(t *testing.T) {
	native := risk.KAnonymity{K: 2}
	for _, dist := range []synth.Dist{synth.DistW, synth.DistU, synth.DistV} {
		for _, n := range []int{120, 1000} {
			d := synth.Generate(synth.Config{Tuples: n, QIs: 4, Dist: dist, Seed: 19})
			want, err := anon.Run(d, declarativeConfig(native, anon.LocalSuppression{Choice: anon.AttrSchemaOrder}))
			if err != nil {
				t.Fatalf("%s: native: %v", d.Name, err)
			}
			if want.NullsInjected == 0 {
				t.Fatalf("%s: the native run suppressed nothing; the differential is vacuous", d.Name)
			}
			for name, cfg := range map[string]anon.Config{
				"declarative assessor": declarativeConfig(Assessor{Measure: native}, anon.LocalSuppression{Choice: anon.AttrSchemaOrder}),
				"declarative step":     declarativeConfig(native, &Suppression{}),
				"both declarative":     declarativeConfig(Assessor{Measure: native}, &Suppression{}),
			} {
				got, err := anon.Run(d, cfg)
				if err != nil {
					t.Fatalf("%s, %s: %v", d.Name, name, err)
				}
				if csvBytes(t, got.Dataset) != csvBytes(t, want.Dataset) {
					t.Errorf("%s, %s: released bytes differ from the native run", d.Name, name)
				}
				if !reflect.DeepEqual(got.Decisions, want.Decisions) {
					t.Errorf("%s, %s: decision log differs from the native run (%d vs %d decisions)",
						d.Name, name, len(got.Decisions), len(want.Decisions))
				}
				if got.Iterations != want.Iterations || !reflect.DeepEqual(got.Residual, want.Residual) {
					t.Errorf("%s, %s: %d iterations, %d residual; native %d, %d",
						d.Name, name, got.Iterations, len(got.Residual), want.Iterations, len(want.Residual))
				}
			}
		}
	}
}

// A declarative run killed after its first committed iteration resumes to the
// bytes of the uninterrupted run: the reasoner inherits the driver's
// checkpoints, which the hand-written loop had no hook for.
func TestDeclarativeCycleResumes(t *testing.T) {
	d := synth.Generate(synth.Config{Tuples: 300, QIs: 4, Dist: synth.DistV, Seed: 19})
	cfg := declarativeConfig(Assessor{Measure: risk.KAnonymity{K: 2}}, &Suppression{})
	want, err := anon.Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations < 3 {
		t.Fatalf("control ran %d iterations; the kill needs work left after the first", want.Iterations)
	}

	killed := errors.New("killed after the first checkpoint")
	var journal []anon.Checkpoint
	cfg.Checkpoint = func(cp anon.Checkpoint) error {
		journal = append(journal, cp)
		return killed // the record is durable; the process dies before the next iteration
	}
	if _, err := anon.Run(d, cfg); !errors.Is(err, killed) {
		t.Fatalf("interrupted run: %v", err)
	}
	if len(journal) != 1 {
		t.Fatalf("journaled %d checkpoints, want 1", len(journal))
	}

	cfg.Anonymizer, cfg.Checkpoint = &Suppression{}, nil
	got, err := anon.ResumeContext(context.Background(), d, cfg, journal)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if csvBytes(t, got.Dataset) != csvBytes(t, want.Dataset) {
		t.Error("resumed bytes differ from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) || got.Iterations != want.Iterations {
		t.Errorf("resumed run: %d decisions in %d iterations; uninterrupted %d in %d",
			len(got.Decisions), got.Iterations, len(want.Decisions), want.Iterations)
	}
}
