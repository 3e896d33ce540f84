package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// loadClient carries the measured requests over one keep-alive
// connection: one closed-loop client, a script waiting for each reply.
// Two concurrent clients on the 2-vCPU reference host measured about
// twice as sensitive to contention from other tenants (serve-cold's
// spread over 50 alternating bursts: 0.22 against 0.12).
var loadClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	},
}

// controlClient carries probes, scrapes and profile captures, outside
// the measured connections.
var controlClient = &http.Client{Timeout: 60 * time.Second}

// daemon is one running `a64fxbench serve` process.
type daemon struct {
	cmd    *exec.Cmd
	api    string // base URL of the API listener
	debug  string // base URL of the pprof listener, "" when off
	done   chan struct{}
	stderr lockedBuffer
}

// lockedBuffer collects the daemon's stderr for error messages.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.buf.Len() > 64<<10 {
		return len(p), nil
	}
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(b.buf.String())
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startTimeout bounds the wait for a new daemon's first healthy answer.
const startTimeout = 30 * time.Second

// startDaemon launches `serve -j jobs` (plus a pprof listener when
// debug is set) and waits for the first 200 from /v1/healthz. It
// returns the time from exec to that answer. The request log goes to
// the null device.
func startDaemon(ctx context.Context, bin string, jobs int, debug bool) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"serve", "-addr", addr, "-j", strconv.Itoa(jobs)}
	d := &daemon{api: "http://" + addr, done: make(chan struct{})}
	if debug {
		daddr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-debug-addr", daddr)
		d.debug = "http://" + daddr
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	for {
		resp, err := controlClient.Get(d.api + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > startTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("serve not healthy after %v: %s", startTimeout, d.stderr.String())
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("serve exited before becoming healthy: %s", d.stderr.String())
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop interrupts the daemon, which drains and exits, and waits for it;
// a daemon that has not exited after ten seconds is killed.
func (d *daemon) stop() {
	d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTime is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (utime and stime, in USER_HZ = 100 ticks per second).
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS is the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// get fetches a control URL and fails on any status but 200.
func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// post sends one JSON request body and returns the status and body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sample is one closed-loop op.
type sample struct {
	latency  time.Duration
	profiled bool // started while a CPU profile was being captured
}

// pauseEvery is how much load a closed loop with a pause hook runs
// between pauses.
const pauseEvery = time.Second

// closedLoop sends op after op, each only once the previous one has
// completed, for d of measured time, which it returns; do performs op
// i. profiling, when non-nil, tags each op with whether a profile
// capture was running as it started. pause, when non-nil, runs after
// every pauseEvery of load, between two ops, so it sees the program
// idle; pauses are not measured time.
func closedLoop(ctx context.Context, d time.Duration, do func(i int), profiling func() bool, pause func()) ([]sample, time.Duration) {
	var (
		samples  []sample
		measured time.Duration // load before the current slice
	)
	slice := time.Now()
	for i := 0; ctx.Err() == nil; i++ {
		elapsed := time.Since(slice)
		if pause != nil && elapsed >= pauseEvery && measured+elapsed < d {
			measured += elapsed
			pause()
			slice, elapsed = time.Now(), 0
		}
		if measured+elapsed >= d {
			break
		}
		s := sample{profiled: profiling != nil && profiling()}
		start := time.Now()
		do(i)
		s.latency = time.Since(start)
		samples = append(samples, s)
	}
	return samples, measured + time.Since(slice)
}

func latenciesMS(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = ms(x.latency)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rusage extracts CPU time and peak RSS (MB) of an exited child.
func rusage(ps *os.ProcessState) (time.Duration, float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024
}
