package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one cardserved process started by the benchmark on loopback
// ports the kernel picks.
type daemon struct {
	cmd     *exec.Cmd
	httpURL string
	tcpAddr string

	exited  chan struct{} // closed once the process has been reaped
	planned atomic.Bool   // set before the benchmark stops or kills it

	mu      sync.Mutex
	gcs     []gcEvent
	errTail []string // last stderr lines that are not gctrace, for diagnostics
}

// gcEvent is one GODEBUG=gctrace=1 line: its arrival time and its
// stop-the-world pause (sweep termination plus mark termination).
type gcEvent struct {
	at      time.Time
	pauseMs float64
}

// startDaemon execs bin with args plus loopback listen flags, and returns
// once /healthz answers 200, with the time from exec to that answer.
func startDaemon(bin string, args []string, tcp, gctrace bool) (*daemon, float64, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	if tcp {
		args = append(args, "-tcp-addr", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	// Both pipes are drained to EOF before Wait, as exec requires.
	var pipes sync.WaitGroup
	pipes.Add(1)
	go func() {
		defer pipes.Done()
		d.readStderr(stderr)
	}()
	addrs := make(chan [2]string, 1)
	pipes.Add(1)
	go func() {
		defer pipes.Done()
		readAddrs(stdout, addrs)
	}()
	go func() {
		pipes.Wait()
		_ = cmd.Wait()
		close(d.exited)
	}()

	select {
	case a := <-addrs:
		d.httpURL, d.tcpAddr = "http://"+a[0], a[1]
	case <-d.exited:
		return nil, 0, fmt.Errorf("cardserved exited during start-up: %s", d.tail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, errors.New("cardserved did not report its listen address within 60s")
	}
	if tcp && d.tcpAddr == "" {
		d.kill()
		return nil, 0, errors.New("cardserved did not report its CWT1 address")
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(d.httpURL + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("cardserved /healthz not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0).Seconds(), nil
}

// readAddrs scans cardserved's start-up lines for the HTTP and CWT1
// listen addresses, sends them once the HTTP line arrives (it is printed
// last), and drains the rest of the stream.
func readAddrs(r io.Reader, out chan<- [2]string) {
	sc := bufio.NewScanner(r)
	var tcp string
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "cardserved: tcp ingest on "); ok {
			tcp = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "cardserved: listening on "); ok && !sent {
			out <- [2]string{strings.Fields(rest)[0], tcp}
			sent = true
		}
	}
}

func (d *daemon) readStderr(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		now := time.Now()
		d.mu.Lock()
		if p, ok := parseGCTrace(line); ok {
			d.gcs = append(d.gcs, gcEvent{at: now, pauseMs: p})
		} else {
			d.errTail = append(d.errTail, line)
			if len(d.errTail) > 20 {
				d.errTail = d.errTail[1:]
			}
		}
		d.mu.Unlock()
	}
}

// parseGCTrace reads the stop-the-world pause from a gctrace line, such as
// "gc 7 @1.204s 3%: 0.018+2.1+0.031 ms clock, ...": the first and third
// terms of the wall-clock triple.
func parseGCTrace(line string) (float64, bool) {
	if !strings.HasPrefix(line, "gc ") {
		return 0, false
	}
	_, after, ok := strings.Cut(line, ": ")
	if !ok {
		return 0, false
	}
	clock, _, ok := strings.Cut(after, " ms clock")
	if !ok {
		return 0, false
	}
	parts := strings.Split(clock, "+")
	if len(parts) != 3 {
		return 0, false
	}
	a, err1 := strconv.ParseFloat(parts[0], 64)
	c, err2 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return a + c, true
}

// gcSince returns the GC cycles that completed after t, their summed
// pause and their longest pause.
func (d *daemon) gcSince(t time.Time) (cycles int, totalMs, maxMs float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, g := range d.gcs {
		if g.at.After(t) {
			cycles++
			totalMs += g.pauseMs
			maxMs = math.Max(maxMs, g.pauseMs)
		}
	}
	return
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.errTail, " | ")
}

// died reports whether the process has exited without the benchmark asking.
func (d *daemon) died() bool {
	select {
	case <-d.exited:
		return !d.planned.Load()
	default:
		return false
	}
}

// stop asks for an orderly shutdown and waits for the process to exit.
func (d *daemon) stop() error {
	d.planned.Store(true)
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("cardserved ignored SIGTERM for 60s")
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (d *daemon) kill() {
	d.planned.Store(true)
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

// cpuSeconds is the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc.
const clockTicks = 100

// peakRSSMiB is the daemon's VmHWM from /proc/<pid>/status, in MiB.
func (d *daemon) peakRSSMiB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// promSample is a parsed /metrics exposition: series key (name plus its
// label set exactly as printed) to value.
type promSample map[string]float64

func parseProm(text string) promSample {
	out := make(promSample)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is b−a for one series.
func delta(a, b promSample, key string) float64 { return b[key] - a[key] }

// histDeltaQuantile is the q-quantile of the observations a histogram
// gained between two scrapes, in the histogram's unit.
func histDeltaQuantile(a, b promSample, name, labels string, q float64) float64 {
	prefix := name + "_bucket{" + labels + `,le="`
	type bucket struct {
		le  float64
		key string
	}
	var bs []bucket
	for k := range b {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le := strings.TrimSuffix(rest, `"}`)
			v, err := strconv.ParseFloat(le, 64) // accepts "+Inf"
			if err == nil {
				bs = append(bs, bucket{v, k})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	bounds := make([]float64, len(bs))
	cum := make([]float64, len(bs))
	for i, bk := range bs {
		bounds[i], cum[i] = bk.le, b[bk.key]-a[bk.key]
	}
	return histQuantile(bounds, cum, q)
}
