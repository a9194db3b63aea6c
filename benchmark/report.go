package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one measured value. N is the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced,omitempty"`

	Attempted  int    `json:"attempted"`
	Failed     int    `json:"failed"`
	FirstError string `json:"first_error,omitempty"`

	// PhaseSeconds is the wall-clock length of the measured phase, Rounds
	// the number of identical rounds it was made of.
	PhaseSeconds float64 `json:"phase_seconds"`
	Rounds       int     `json:"rounds,omitempty"`
	// Schedule is the SHA-256 of the schedule's request bytes.
	Schedule string `json:"schedule"`
	// GeneratorCPU is the load generator's own CPU time during the measured
	// phase as a share of the machine: near 1/procs means the generator,
	// not the daemon, was the bottleneck.
	GeneratorCPU float64 `json:"generator_cpu_share"`
	// TailPercentile is the percentile op_tail_ms was taken at.
	TailPercentile float64 `json:"tail_percentile,omitempty"`

	Metrics map[string]metric `json:"metrics"`
}

func (r *runResult) put(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// machine is where and on what a result file was measured.
type machine struct {
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	DaemonProc int    `json:"daemon_gomaxprocs"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func describeMachine(e *env) machine {
	m := machine{
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		DaemonProc: e.procs,
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A driver checkout is not a git repository; the commit is then unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
	}
	return m
}

// resultFile is what -runs writes and -compare reads: every run, not just
// the medians.
type resultFile struct {
	Schema  string       `json:"schema"`
	Machine machine      `json:"machine"`
	Runs    []*runResult `json:"runs"`
}

const resultSchema = "vadasa-benchmark/v1"

func writeResultFile(path string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// printRun writes every metric of a run by name with its unit.
func printRun(w io.Writer, r *runResult, wl *workload) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  measured phase %.2fs in %d rounds  generator cpu share %.3f\n",
		r.Workload, r.Seed, mode, r.PhaseSeconds, r.Rounds, r.GeneratorCPU)
	fmt.Fprintf(w, "  why: %s\n", wl.why)
	if !r.Traced {
		fmt.Fprintf(w, "  op = %s, op2 = %s, tail = p%g, schedule %.12s\n", wl.primary, wl.secondary, r.TailPercentile, r.Schedule)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first failure: %s\n", r.FirstError)
	}
}

// contractLine is the last line of standard output the acceptance driver
// parses: exactly the keys correct, attempted, failed and metrics, the
// metrics being the ones BENCHMARK.json lists for the mode.
func contractLine(r *runResult, listed []specMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, want := range listed {
		m, ok := r.Metrics[want.Name]
		if !ok {
			return "", fmt.Errorf("run of %s did not produce %s, which BENCHMARK.json lists", r.Workload, want.Name)
		}
		if m.Unit != want.Unit {
			return "", fmt.Errorf("%s is measured in %q but BENCHMARK.json says %q", want.Name, m.Unit, want.Unit)
		}
		out.Metrics[want.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
