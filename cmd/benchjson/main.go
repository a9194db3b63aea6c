// Command benchjson converts `go test -bench` output into the versioned
// BENCH_<PR>.json machine-readable record documented in DESIGN.md: one entry
// per benchmark with the standard ns/op, B/op and allocs/op columns plus
// every custom metric (riskeval-ms/op, nulls/op, loss%/op,
// decl-vs-native-ratio, ...) the suite reports, the GOMAXPROCS each row ran
// under, and a header naming the machine and toolchain — allocation counts
// of the parallel engine paths depend on the former, ns/op on the latter.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... > bench.out
//	go run ./cmd/benchjson -o bench.json bench.out
//
// With no file argument the benchmark output is read from stdin. Lines that
// are not benchmark results (headers, PASS/ok, build noise) are ignored, so
// the full `go test` stream can be piped through unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result row.
type Entry struct {
	// Name is the benchmark path without the trailing -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Pkg is the package the row was measured in (the stream's last
	// `pkg:` line before it).
	Pkg string `json:"pkg,omitempty"`
	// GOMAXPROCS is that suffix; the bench runner omits it at 1.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Iterations is the b.N the row was measured at.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the standard time column.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the -benchmem columns; absent (zero)
	// when -benchmem was off.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// RiskEvalMsPerOp surfaces the suite's headline custom metric (the
	// risk-estimation component of Figure 7e) as a first-class field;
	// nil when the benchmark does not report it.
	RiskEvalMsPerOp *float64 `json:"riskeval_ms_per_op,omitempty"`
	// Metrics holds every custom unit verbatim, riskeval-ms/op included.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level BENCH_<PR>.json document. The header fields are
// the `goos:`, `goarch:`, `cpu:` and `pkg:` lines the bench runner prints
// (every package of the stream, in order), the `commit:` line `make bench`
// writes ahead of them, and the toolchain that ran it.
type Report struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit,omitempty"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkg        []string `json:"pkg,omitempty"`
	Benchmarks []Entry  `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	report, err := parse(in)
	if err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark result lines found in input"))
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse folds a `go test -bench` stream into a Report. A benchmark result
// line is `Benchmark<Name>[-<P>]  <N>  <value> <unit> [<value> <unit>]...`;
// the `key: value` lines ahead of each package's rows feed the header;
// everything else is skipped.
func parse(r io.Reader) (*Report, error) {
	report := &Report{Schema: "vadasa-bench/v2", GoVersion: runtime.Version()}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if key, value, ok := strings.Cut(sc.Text(), ": "); ok {
			switch key {
			case "commit":
				report.Commit = value
			case "goos":
				report.GOOS = value
			case "goarch":
				report.GOARCH = value
			case "cpu":
				report.CPU = value
			case "pkg":
				pkg = value
				report.Pkg = append(report.Pkg, value)
			}
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a "Benchmark..." line that is not a result row
		}
		name, procs := splitProcs(strings.TrimPrefix(fields[0], "Benchmark"))
		e := Entry{Name: name, Pkg: pkg, GOMAXPROCS: procs, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Metrics == nil {
					e.Metrics = make(map[string]float64)
				}
				e.Metrics[unit] = v
				if unit == "riskeval-ms/op" {
					ms := v
					e.RiskEvalMsPerOp = &ms
				}
			}
		}
		report.Benchmarks = append(report.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(report.Benchmarks, func(i, j int) bool {
		return report.Benchmarks[i].Name < report.Benchmarks[j].Name
	})
	return report, nil
}

// splitProcs splits the trailing -<GOMAXPROCS> the bench runner appends off
// a benchmark path, so entries compare by name while the record keeps what
// they ran under. The runner appends nothing at GOMAXPROCS=1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if procs, err := strconv.Atoi(name[i+1:]); err == nil && procs > 0 {
			return name[:i], procs
		}
	}
	return name, 1
}
