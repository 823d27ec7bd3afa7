package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
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

// daemon is a child tvqd on a free loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	logs *tailBuffer
	done chan error
}

// buildDaemon compiles cmd/tvqd into dir. run.sh hands the benchmark a
// prebuilt binary; a bare `go run` or `go test` in this directory builds
// its own.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "tvqd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "tvq/cmd/tvqd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build tvq/cmd/tvqd: %v\n%s", err, out)
	}
	return bin, nil
}

// startDaemon launches bin on a free port and waits until /healthz
// answers. The boot session is left idle; every pass creates its own.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{base: "http://" + addr, logs: &tailBuffer{max: 16 << 10}, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, "-addr", addr, "-heartbeat", "0")
	d.cmd.Stdout, d.cmd.Stderr = d.logs, d.logs
	d.cmd.SysProcAttr = childAttr()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	// One connection per probe: an idle keep-alive connection would
	// outlive the wait and sit beside the two the workload may hold.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("tvqd exited before it was healthy: %v\n%s", err, d.logs)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tvqd not healthy on %s after 10s\n%s", addr, d.logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to drain (SIGTERM), waits for it, and kills it
// if it has not exited in five seconds. Safe to call twice.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		d.done <- <-d.done
	}
}

// scrape reads the daemon's /metrics counters, summing series that
// share a name.
func (d *daemon) scrape(ctx context.Context, hc *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}

// procUsage is what /proc says the child has used so far.
type procUsage struct {
	cpuSeconds float64 // utime+stime
	peakRSSMB  float64 // VmHWM
}

func (d *daemon) usage() procUsage { return readProc(d.cmd.Process.Pid) }

// tailBuffer keeps the last max bytes written to it: the daemon's log,
// shown when something goes wrong.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// parseProc extracts CPU seconds from /proc/<pid>/stat and the resident
// high-water mark from /proc/<pid>/status.
func parseProc(stat, status []byte) procUsage {
	var u procUsage
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks of 1/100 s.
	if i := bytes.LastIndexByte(stat, ')'); i >= 0 {
		fields := bytes.Fields(stat[i+1:])
		if len(fields) > 12 {
			ut, _ := strconv.ParseFloat(string(fields[11]), 64)
			st, _ := strconv.ParseFloat(string(fields[12]), 64)
			u.cpuSeconds = (ut + st) / 100
		}
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			if f := bytes.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(string(f[0]), 64)
				u.peakRSSMB = kb / 1024
			}
		}
	}
	return u
}

func readProc(pid int) procUsage {
	stat, _ := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	status, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	return parseProc(stat, status)
}
