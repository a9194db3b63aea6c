package main

import (
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: vadasa
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig7eBySize/n=5000/individual-risk(monte-carlo)-4         	       1	  17571099 ns/op	        14.00 riskeval-ms/op	  524288 B/op	    1024 allocs/op
BenchmarkFig7aNullsByK/W/k=2-4   	       2	 123456 ns/op	 321.0 nulls/op	 4.100 loss%/op
BenchmarkGrouping-4 	     100	  99999 ns/op
PASS
ok  	vadasa	0.078s
goos: linux
goarch: amd64
pkg: vadasa/cmd/vadasad
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReasonRequest/n=50000 	       5	 186477497 ns/op	         0.3509 allocs/row	57523747 B/op	   17546 allocs/op
PASS
ok  	vadasa/cmd/vadasad	2.0s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d entries, want 4", len(rep.Benchmarks))
	}
	if rep.Schema != "vadasa-bench/v2" || rep.GOOS != "linux" || rep.GOARCH != "amd64" ||
		rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" || rep.GoVersion != runtime.Version() ||
		strings.Join(rep.Pkg, ",") != "vadasa,vadasa/cmd/vadasad" || rep.Commit != "" {
		t.Fatalf("bad header: %+v", rep)
	}
	// `make bench` names the commit ahead of the stream.
	withCommit, err := parse(strings.NewReader("commit: d2f0a3b\n" + sample))
	if err != nil {
		t.Fatal(err)
	}
	if withCommit.Commit != "d2f0a3b" || len(withCommit.Benchmarks) != 4 || withCommit.GOOS != "linux" {
		t.Fatalf("commit line not read into the header: %+v", withCommit)
	}
	byName := map[string]Entry{}
	for _, e := range rep.Benchmarks {
		byName[e.Name] = e
	}
	mc, ok := byName["Fig7eBySize/n=5000/individual-risk(monte-carlo)"]
	if !ok {
		t.Fatalf("missing monte-carlo entry (procs suffix not trimmed?): %v", rep.Benchmarks)
	}
	if mc.NsPerOp != 17571099 || mc.AllocsPerOp != 1024 || mc.BytesPerOp != 524288 {
		t.Fatalf("bad standard columns: %+v", mc)
	}
	if mc.RiskEvalMsPerOp == nil || *mc.RiskEvalMsPerOp != 14 {
		t.Fatalf("riskeval-ms/op not surfaced: %+v", mc)
	}
	nulls := byName["Fig7aNullsByK/W/k=2"]
	if nulls.Metrics["nulls/op"] != 321 || nulls.Metrics["loss%/op"] != 4.1 {
		t.Fatalf("custom metrics lost: %+v", nulls)
	}
	if nulls.RiskEvalMsPerOp != nil {
		t.Fatalf("riskeval surfaced where absent: %+v", nulls)
	}
	plain := byName["Grouping"]
	if plain.Iterations != 100 || plain.NsPerOp != 99999 || plain.Metrics != nil {
		t.Fatalf("bad plain entry: %+v", plain)
	}
	// A row with the -N suffix records it; a row without ran at GOMAXPROCS=1.
	if plain.GOMAXPROCS != 4 || plain.Pkg != "vadasa" {
		t.Fatalf("suffix or package not recorded: %+v", plain)
	}
	req := byName["ReasonRequest/n=50000"]
	if req.GOMAXPROCS != 1 || req.Pkg != "vadasa/cmd/vadasad" || req.Metrics["allocs/row"] != 0.3509 {
		t.Fatalf("bad suffix-less entry: %+v", req)
	}
}

func TestParseRejectsGarbageValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX-4 1 abc ns/op\n")); err == nil {
		t.Fatal("garbage value accepted")
	}
}

func TestSplitProcs(t *testing.T) {
	for in, want := range map[string]struct {
		name  string
		procs int
	}{
		"Grouping-4":              {"Grouping", 4},
		"Fig7eBySize/n=5000/x-16": {"Fig7eBySize/n=5000/x", 16},
		"NoSuffix":                {"NoSuffix", 1},
		"monte-carlo":             {"monte-carlo", 1}, // non-numeric tail stays
	} {
		if name, procs := splitProcs(in); name != want.name || procs != want.procs {
			t.Fatalf("splitProcs(%q) = %q, %d, want %q, %d", in, name, procs, want.name, want.procs)
		}
	}
}
