// Command benchmark is the request-level benchmark of vadasad: it builds the
// daemon from the checkout, boots real processes, drives one of five named
// workloads from closed-loop clients, checks every output, and prints every
// metric by name with its unit. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// spec mirrors BENCHMARK.json, the contract this program is run under: the
// metric names, units and regression bounds live there and nowhere else.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// findRoot walks up from the working directory to the checkout root: the
// directory that holds both BENCHMARK.json and cmd/vadasad. run.sh starts
// the program at the root, `go run -C benchmark .` one level below.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "vadasad")); err == nil {
				return dir, nil
			}
			return "", fmt.Errorf("%s holds BENCHMARK.json but no cmd/vadasad: the benchmark needs the repository it measures", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func newEnv(root string, sc scale) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:   root,
		tmp:    filepath.Join(build, "state"),
		outDir: filepath.Join(root, "benchmark", "out"),
		procs:  min(runtime.NumCPU(), 4),
		sc:     sc,
		client: newHTTPClient(),
		refs:   &refCache{},
	}
	for _, d := range []string{filepath.Join(build, "bin"), e.tmp, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	bin, took, err := buildDaemon(root, filepath.Join(build, "bin"))
	if err != nil {
		return nil, err
	}
	e.bin, e.buildS = bin, took.Seconds()
	return e, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all workloads, -runs times, into a result file)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs and the schedule shuffle")
		seconds      = flag.Int("seconds", 0, "requested length of the measured phase; sizes the schedule (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1: traced in-process run reporting the per-layer metrics; 0: untraced daemon run reporting the end-to-end metrics")
		runs         = flag.Int("runs", 5, "without -workload: how many times to run every workload; every run is stored")
		out          = flag.String("out", "", "without -workload: result file to write (default benchmark/out/result-<time>.json)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json; exits 1 on a regression")
		smoke        = flag.Bool("smoke", false, "tiny inputs and schedules: exercises every code path in seconds, measures nothing")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare OLD.json NEW.json")
			return 2
		}
		return compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}

	// Every exit path below kills the daemons: the deferred call on return,
	// the handler on SIGINT/SIGTERM, Pdeathsig if this process is SIGKILLed.
	defer killAllDaemons()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	e, err := newEnv(root, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("built cmd/vadasad in %.2fs; daemons run with GOMAXPROCS=%d; %d closed-loop clients\n", e.buildS, e.procs, numClients)

	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		res, listed, err := runOne(ctx, e, sp, w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printRun(os.Stdout, res, w)
		line, err := contractLine(res, listed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(line)
		return 0
	}

	rf := &resultFile{Schema: resultSchema, Machine: describeMachine(e)}
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			res, _, err := runOne(ctx, e, sp, w, *seed+int64(i), *seconds, *trace == 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printRun(os.Stdout, res, w)
			rf.Runs = append(rf.Runs, res)
		}
	}
	path := *out
	if path == "" {
		path = filepath.Join(e.outDir, "result-"+time.Now().UTC().Format("20060102T150405Z")+".json")
	}
	if err := writeResultFile(path, rf); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	summarize(os.Stdout, sp, rf)
	fmt.Println("wrote", path)
	return 0
}

// runOne runs a workload untraced or traced and returns the result with the
// names of the metrics the mode must report.
func runOne(ctx context.Context, e *env, sp *spec, w *workload, seed int64, seconds int, traced bool) (*runResult, []specMetric, error) {
	if traced {
		res, err := runTraced(ctx, e, w, seed, seconds)
		return res, sp.PerLayer, err
	}
	res, err := runWorkload(ctx, e, w, seed, seconds)
	return res, sp.EndToEnd, err
}
