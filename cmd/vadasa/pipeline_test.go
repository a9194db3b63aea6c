package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vadasa"
)

func writeInput(t *testing.T, dir string) string {
	t.Helper()
	d := vadasa.Generate(vadasa.GeneratorConfig{
		Tuples: 600, QIs: 4, Dist: vadasa.DistV, Seed: 3,
	})
	path := filepath.Join(dir, "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := vadasa.WriteCSV(f, d); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPipeline(t *testing.T) {
	dir := t.TempDir()
	in := writeInput(t, dir)
	out := filepath.Join(dir, "out.csv")
	decisions := filepath.Join(dir, "decisions.log")
	report := filepath.Join(dir, "report.txt")

	var logBuf bytes.Buffer
	err := runPipeline(PipelineConfig{
		Input:          in,
		Output:         out,
		DecisionLog:    decisions,
		Report:         report,
		Measure:        "k-anonymity",
		K:              2,
		Threshold:      0.5,
		ValidateAttack: true,
	}, &logBuf)
	if err != nil {
		t.Fatalf("runPipeline: %v\nlog:\n%s", err, logBuf.String())
	}
	for _, want := range []string{"nulls injected", "expected re-identifications", "wrote"} {
		if !strings.Contains(logBuf.String(), want) {
			t.Errorf("log missing %q:\n%s", want, logBuf.String())
		}
	}

	// The output must be k-anonymous when re-read.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	schema := vadasa.Generate(vadasa.GeneratorConfig{Tuples: 1, QIs: 4, Dist: vadasa.DistV, Seed: 3}).Attrs
	back, err := vadasa.ReadCSV(f, "out", schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := vadasa.VerifyKAnonymity(back, 2, vadasa.MaybeMatch); len(got) != 0 {
		t.Fatalf("output not 2-anonymous: %v", got)
	}

	// Artifacts exist and carry content.
	decBytes, err := os.ReadFile(decisions)
	if err != nil || len(decBytes) == 0 {
		t.Fatalf("decision log: %v, %d bytes", err, len(decBytes))
	}
	if !strings.Contains(string(decBytes), "local-suppression") {
		t.Error("decision log has no suppressions")
	}
	repBytes, err := os.ReadFile(report)
	if err != nil || !strings.Contains(string(repBytes), "utility report") {
		t.Fatalf("report: %v, %q", err, repBytes)
	}
}

func TestRunPipelineValidation(t *testing.T) {
	var sink bytes.Buffer
	if err := runPipeline(PipelineConfig{}, &sink); err == nil {
		t.Error("empty config accepted")
	}
	if err := runPipeline(PipelineConfig{Input: "no-such.csv", Output: "x"}, &sink); err == nil {
		t.Error("missing input accepted")
	}
	dir := t.TempDir()
	in := writeInput(t, dir)
	if err := runPipeline(PipelineConfig{
		Input: in, Output: filepath.Join(dir, "o.csv"),
		Measure: "bogus",
	}, &sink); err == nil {
		t.Error("bogus measure accepted")
	}
	if err := runPipeline(PipelineConfig{
		Input: in, Output: filepath.Join(dir, "o.csv"),
		NonIdentifying: []string{"NoSuchAttr"},
	}, &sink); err == nil {
		t.Error("unknown non-identifying attribute accepted")
	}
}

// A threshold that is no number is an error, not a cycle that finds nothing
// over it and writes the input out as its anonymization.
func TestAnonymizeRefusesNaNThreshold(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "o.csv")
	err := cmdAnonymize([]string{"-in", writeInput(t, dir), "-out", out, "-k", "3", "-threshold", "NaN"})
	if err == nil || !strings.Contains(err.Error(), "threshold NaN outside [0,1]") {
		t.Fatalf("anonymize -threshold NaN: %v", err)
	}
	if _, err := os.Stat(out); err == nil {
		t.Fatal("the refused run wrote an output file")
	}
}

func TestRunPipelineWithEstimatedWeights(t *testing.T) {
	dir := t.TempDir()
	// A dataset without a weight column.
	d := vadasa.NewDataset("w", []vadasa.Attribute{
		{Name: "Area", Category: vadasa.QuasiIdentifier},
		{Name: "Sector", Category: vadasa.QuasiIdentifier},
	})
	rows := [][2]string{
		{"Roma", "Textiles"}, {"Roma", "Commerce"}, {"Roma", "Commerce"},
		{"Milano", "Construction"}, {"Milano", "Construction"},
	}
	for _, r := range rows {
		d.Append(&vadasa.Row{Values: []vadasa.Value{vadasa.Const(r[0]), vadasa.Const(r[1])}})
	}
	in := filepath.Join(dir, "in.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := vadasa.WriteCSV(f, d); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var sink bytes.Buffer
	err = runPipeline(PipelineConfig{
		Input:           in,
		Output:          filepath.Join(dir, "out.csv"),
		Quasi:           []string{"Area", "Sector"},
		EstimateWeights: 30,
		Measure:         "re-identification",
		Threshold:       0.05, // 1/30 risk of unique tuples is above this
	}, &sink)
	if err != nil {
		t.Fatalf("runPipeline: %v\n%s", err, sink.String())
	}
	if !strings.Contains(sink.String(), "nulls injected") {
		t.Fatalf("log: %s", sink.String())
	}
}
