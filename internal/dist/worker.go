package dist

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// WorkerOptions tunes a worker's task handler.
type WorkerOptions struct {
	// Hold delays every task for the given duration between decode and
	// scoring — a chaos knob that widens the window in which a SIGKILL or
	// an injected fault lands mid-task. Zero in production.
	Hold time.Duration
	// Logf receives worker diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// WorkerHandler is the vadasaw wire surface: POST /task scores a shard,
// GET /healthz answers liveness probes. The handler is stateless and the
// scoring pure, so re-delivered tasks (retries, duplicated RPCs) recompute
// identical bits — worker idempotency falls out of purity rather than
// deduplication bookkeeping.
func WorkerHandler(opts WorkerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /task", func(w http.ResponseWriter, r *http.Request) {
		var t Task
		if err := json.NewDecoder(r.Body).Decode(&t); err != nil {
			http.Error(w, "bad task: "+err.Error(), http.StatusBadRequest)
			return
		}
		if opts.Hold > 0 {
			time.Sleep(opts.Hold)
		}
		reply := Reply{Seq: t.Seq, Epoch: t.Epoch}
		values, err := t.Measure.Score(t.Rows)
		if err != nil {
			// A scoring error is a deterministic property of the data, not
			// of this worker: it rides back inside a successful reply so
			// the supervisor fails the task instead of retrying it.
			reply.Err = err.Error()
		} else {
			reply.Values = values
		}
		opts.logf("vadasaw: task run=%s seq=%d epoch=%d rows=%d err=%q",
			t.Run, t.Seq, t.Epoch, len(t.Rows), reply.Err)
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(reply); err != nil {
			opts.logf("vadasaw: encoding reply for task %d: %v", t.Seq, err)
		}
	})
	return mux
}

// listeningPrefix is the line a worker prints to stdout once it accepts
// connections; Spawn parses the address after it.
const listeningPrefix = "vadasaw listening on "

// WorkerMain is the entire vadasaw worker process: parse flags, listen,
// announce the bound address on stdout, serve until killed. It is shared
// between cmd/vadasaw and the test binaries' re-exec path (a TestMain that
// detects a worker environment variable), so chaos tests SIGKILL real
// processes running exactly the production loop. Returns the process exit
// code.
func WorkerMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vadasaw", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	hold := fs.Duration("hold", 0, "artificial per-task delay between decode and scoring (chaos testing)")
	quiet := fs.Bool("quiet", false, "suppress per-task diagnostics on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := WorkerOptions{Hold: *hold}
	if !*quiet {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vadasaw: listen %s: %v\n", *addr, err)
		return 1
	}
	// The announce line is the spawn handshake: the parent reads it to
	// learn the bound port before sending work.
	fmt.Fprintf(stdout, "%s%s\n", listeningPrefix, l.Addr().String())
	if f, ok := stdout.(*os.File); ok {
		f.Sync()
	}
	srv := &http.Server{Handler: WorkerHandler(opts), ReadHeaderTimeout: 5 * time.Second}
	if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "vadasaw: serve: %v\n", err)
		return 1
	}
	return 0
}

// Proc is a worker child process spawned by the supervisor's host.
type Proc struct {
	cmd  *exec.Cmd
	addr string

	mu      sync.Mutex
	waited  bool
	waitErr error
}

// Spawn starts bin with args as a vadasaw worker, waits for its announce
// line (bounded by timeout), and returns a handle addressing it. extraEnv
// entries are appended to the inherited environment — the test re-exec
// path uses this to flip the binary into worker mode.
func Spawn(bin string, args []string, extraEnv []string, timeout time.Duration) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: spawning %s: %w", bin, err)
	}
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, listeningPrefix) {
				addrc <- strings.TrimSpace(strings.TrimPrefix(line, listeningPrefix))
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		errc <- fmt.Errorf("dist: worker %s exited before announcing its address", bin)
	}()
	select {
	case addr := <-addrc:
		return &Proc{cmd: cmd, addr: addr}, nil
	case err := <-errc:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, err
	case <-time.After(timeout):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("dist: worker %s did not announce within %s", bin, timeout)
	}
}

// Addr returns the worker's announced listen address.
func (p *Proc) Addr() string { return p.addr }

// Transport returns an HTTP transport addressing the worker.
func (p *Proc) Transport() *HTTPTransport { return NewHTTPTransport(p.addr, nil) }

// Kill delivers SIGKILL — no grace, no cleanup, the crash chaos tests
// need — and reaps the child.
func (p *Proc) Kill() error {
	p.cmd.Process.Kill()
	return p.wait()
}

func (p *Proc) wait() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.waited {
		p.waited = true
		p.waitErr = p.cmd.Wait()
	}
	return p.waitErr
}
