package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// running holds every process still alive, so a watchdog or a signal can
// stop them all before the benchmark exits.
var running struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

// stopAll stops every process the benchmark started and is still running.
func stopAll() {
	running.mu.Lock()
	ps := make([]*proc, 0, len(running.procs))
	for p := range running.procs {
		ps = append(ps, p)
	}
	running.mu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// proc is one server process the benchmark started: servd or the router.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string
	done chan struct{}
	err  error
}

// startProc launches bin with args, waits for its "listening on <addr>"
// log line (servers are started on port 0), and then keeps draining its
// stderr (per-request access logs) into logPath.
func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// Should the benchmark die without stopping it, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = logf
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	running.mu.Lock()
	if running.procs == nil {
		running.procs = map[*proc]bool{}
	}
	running.procs[p] = true
	running.mu.Unlock()
	go func() {
		p.err = cmd.Wait()
		pw.Close()
		running.mu.Lock()
		delete(running.procs, p)
		running.mu.Unlock()
		close(p.done)
	}()
	addrc := make(chan string, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addrc <- strings.Fields(line[i+len("listening on "):])[0]
				sent = true
			}
		}
		io.Copy(io.Discard, pr) // a line longer than the scanner buffer must not block the child
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %v (log %s)", name, p.err, logPath)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 30s (log %s)", name, logPath)
	}
}

func (p *proc) url() string { return "http://" + p.addr }

// stop sends SIGTERM (servers drain and exit 0), escalates to SIGKILL after
// 15 s, and returns once the process has exited.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// cpu returns the process's user+system CPU time so far.
func (p *proc) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name field may contain spaces; fields resume after ')'.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for %s", p.name)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSKB returns the process's peak resident set (VmHWM) in KiB.
func (p *proc) peakRSSKB() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseInt(f[1], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// fleet is the set of server processes one workload runs against: one
// servd, or a router over two servd replicas.
type fleet struct {
	front    *proc   // where the load goes
	replicas []*proc // every servd
	all      []*proc
}

func (f *fleet) stop() {
	// Stop the router first so its drain never races a vanished replica.
	for i := len(f.all) - 1; i >= 0; i-- {
		f.all[i].stop()
	}
}

// cpuTotal sums user+system CPU over every server process.
func (f *fleet) cpuTotal() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.all {
		c, err := p.cpu()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (f *fleet) peakRSSMB() (float64, error) {
	var sum int64
	for _, p := range f.all {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		sum += kb
	}
	return float64(sum) / 1024, nil
}

// Edge-tier settings for predict-routed: two equal-weight tenants with
// quotas far above the offered load (nothing is refused), and a bounded
// weighted-fair gate.
const (
	tenantInflight = 4
	tenantAKey     = "bench-tenant-alpha-key"
	tenantBKey     = "bench-tenant-beta-key"
)

var tenantKeys = []string{tenantAKey, tenantBKey}

func writeKeyFile(path string) error {
	doc := map[string]any{"tenants": []map[string]any{
		{"name": "alpha", "key": tenantAKey, "weight": 1, "rate_rps": 100000, "burst": 100000},
		{"name": "beta", "key": tenantBKey, "weight": 1, "rate_rps": 100000, "burst": 100000},
	}}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// startFleet starts the processes a workload needs, with every flag that
// matters spelled out at servd's and the router's defaults.
func startFleet(binDir, dir string, routed bool) (*fleet, error) {
	models := filepath.Join(dir, "models")
	servdArgs := []string{"-addr", "127.0.0.1:0", "-models", models,
		"-max-batch", "8", "-max-delay", "2ms", "-queue", "256", "-cache", "4"}
	f := &fleet{}
	nrep := 1
	if routed {
		nrep = 2
	}
	type started struct {
		p   *proc
		err error
	}
	ch := make(chan started, nrep)
	for i := 0; i < nrep; i++ {
		go func(i int) {
			p, err := startProc(fmt.Sprintf("servd-%d", i), filepath.Join(binDir, "servd"), servdArgs,
				filepath.Join(dir, fmt.Sprintf("servd-%d.log", i)))
			ch <- started{p, err}
		}(i)
	}
	var firstErr error
	for i := 0; i < nrep; i++ {
		s := <-ch
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
		if s.p != nil {
			f.replicas = append(f.replicas, s.p)
			f.all = append(f.all, s.p)
		}
	}
	if firstErr != nil {
		f.stop()
		return nil, firstErr
	}
	f.front = f.replicas[0]
	if routed {
		keys := filepath.Join(dir, "keys.json")
		if err := writeKeyFile(keys); err != nil {
			f.stop()
			return nil, err
		}
		backends := make([]string, len(f.replicas))
		for i, r := range f.replicas {
			backends[i] = r.url()
		}
		rt, err := startProc("router", filepath.Join(binDir, "router"), []string{
			"-addr", "127.0.0.1:0", "-replicas", "0", "-backends", strings.Join(backends, ","),
			"-policy", "round-robin", "-max-inflight", "0", "-hedge-after", "0",
			"-keys", keys, "-tenant-inflight", strconv.Itoa(tenantInflight),
		}, filepath.Join(dir, "router.log"))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.front = rt
		f.all = append(f.all, rt)
	}
	for _, p := range f.all {
		if err := waitHealthy(p); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func waitHealthy(p *proc) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url()+"/v1/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy: %v", p.name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
