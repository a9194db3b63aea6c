package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. Linux
// has reported 100 to user space on every architecture for two decades.
const clockTick = 100

// daemon is one spawned vadasad process. It runs in its own process group so
// kill reaches anything it forks, and with Pdeathsig so it cannot outlive a
// load generator that dies without running its cleanup.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	log  *os.File

	// last holds the resource reading taken just before the process was
	// killed: /proc/<pid> disappears with the process.
	last procUsage
}

// procUsage is what /proc says a process has consumed so far.
type procUsage struct {
	cpuSeconds float64 // utime+stime
	peakRSSMB  float64 // VmHWM
	rssMB      float64 // VmRSS
}

// procs tracks every live daemon so that each exit path — normal return,
// fatal error, SIGINT/SIGTERM — kills them all.
var procs struct {
	sync.Mutex
	live map[*daemon]struct{}
}

func killAllDaemons() {
	procs.Lock()
	ds := make([]*daemon, 0, len(procs.live))
	for d := range procs.live {
		ds = append(ds, d)
	}
	procs.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// buildDaemon compiles cmd/vadasad from the checkout into binDir.
func buildDaemon(root, binDir string) (string, time.Duration, error) {
	start := time.Now()
	bin := filepath.Join(binDir, "vadasad")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vadasad")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building cmd/vadasad: %w\n%s", err, out.String())
	}
	return bin, time.Since(start), nil
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed again before the daemon binds it; nothing else on a benchmark
// machine races for ephemeral ports in that window.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches vadasad on addr with the given extra flags and
// returns once the process is started; waitReady is separate so callers can
// time it.
func startDaemon(bin, addr, logPath string, gomaxprocs int, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*daemon]struct{})
	}
	procs.live[d] = struct{}{}
	procs.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries no information
		close(d.done)
	}()
	return d, nil
}

// waitReady polls /readyz until it answers 200. A daemon that exits or does
// not become ready fails the run: timing an error path would be worse than
// no number.
func (d *daemon) waitReady(ctx context.Context, c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("daemon %s exited during start-up (log: %s)", d.base, d.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready after %s (log: %s)", d.base, timeout, d.log.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon's process group and waits for the process to be
// reaped. The last resource reading is taken first. Idempotent.
func (d *daemon) kill() {
	procs.Lock()
	_, live := procs.live[d]
	delete(procs.live, d)
	procs.Unlock()
	if !live {
		<-d.done
		return
	}
	if u, err := d.usage(); err == nil {
		d.last = u
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: already gone
	<-d.done
	d.log.Close()
}

// usage reads the daemon's CPU time and peak resident set from /proc; after
// kill it returns the reading taken just before.
func (d *daemon) usage() (procUsage, error) {
	select {
	case <-d.done:
		return d.last, nil
	default:
	}
	return readProcUsage(d.cmd.Process.Pid)
}

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	ticks, err := parseStatTicks(string(stat))
	if err != nil {
		return u, err
	}
	u.cpuSeconds = float64(ticks) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	u.peakRSSMB = parseStatusMB(string(status), "VmHWM:")
	u.rssMB = parseStatusMB(string(status), "VmRSS:")
	return u, nil
}

// parseStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime is field 14 → f[11], stime f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("non-numeric utime/stime in /proc stat line")
	}
	return ut + st, nil
}

// parseStatusMB returns a kB field of /proc/<pid>/status, such as "VmHWM:"
// (peak resident set) or "VmRSS:" (resident set now), in MB.
func parseStatusMB(status, field string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// selfCPUSeconds is the load generator's own utime+stime so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
