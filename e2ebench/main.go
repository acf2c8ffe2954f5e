// Command e2ebench is the repository's end-to-end serving benchmark. It
// starts the real cmd/servd and cmd/router binaries on loopback, drives them
// from this one load-generator process on a named workload, checks every
// output against an oracle computed apart from the serving path, and prints
// a report followed by one JSON result line.
//
//	e2ebench -bin DIR -work DIR --workload predict-direct --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the untraced run is followed by a traced in-process replay
// of the same seeded inputs, and the result line carries per-layer metrics
// instead of end-to-end ones. run.sh builds the binaries and calls this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	wlDirect = "predict-direct"
	wlRouted = "predict-routed"
	wlScan   = "scan-watershed"
)

var workloads = []string{wlDirect, wlRouted, wlScan}

// runLimit bounds a whole run, traced replay included.
const runLimit = 170 * time.Second

// setupReps is how many times a run sets its servers up; setup_s is the
// median, and the last set-up serves the measured phases.
const setupReps = 3

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what one untraced workload run hands back to main.
type run struct {
	correct           bool
	attempted, failed int
	e2e               map[string]metric
	// reported holds figures printed beside the result but not gated: the
	// latencies, whose run-to-run spread on a shared two-vCPU host exceeded
	// the largest bound a metric may have whenever the host's CPU was
	// contended (see README).
	reported map[string]metric
	layer    map[string]metric // layer figures the untraced run measures
	problems []string

	// What the traced run replays: the same inputs, against the same
	// model containers and (for predict-routed) the same replicas.
	fleet     *fleet
	modelsDir string
	models    []*pinnedModel
	pool      *bodyPool
	specs     []*scanSpec
}

func newRun() *run {
	return &run{correct: true, e2e: map[string]metric{}, reported: map[string]metric{}, layer: map[string]metric{}}
}

func (r *run) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	binDir   string
	workDir  string
	conns    int
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = add the traced run and report per-layer metrics")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory holding the servd and router binaries")
	flag.StringVar(&o.workDir, "work", ".bench_build/work", "working directory for model containers, logs and span dumps")
	flag.Parse()
	o.trace = trace == 1
	o.conns = runtime.NumCPU()
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("bad -seconds %d or -trace %d", o.seconds, trace)
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	for _, b := range []string{"servd", "router"} {
		if _, err := os.Stat(filepath.Join(o.binDir, b)); err != nil {
			fatalf("missing binary: %v", err)
		}
	}
	if err := os.RemoveAll(o.workDir); err != nil {
		fatalf("clearing work dir: %v", err)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fatalf("creating work dir: %v", err)
	}

	// A run must end within its time limit and leave no server behind, even
	// when a server hangs or the benchmark is told to stop.
	time.AfterFunc(runLimit, func() {
		stopAll()
		fatalf("run exceeded %v; servers stopped", runLimit)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		stopAll()
		fatalf("%v; servers stopped", s)
	}()

	fmt.Printf("e2ebench: workload %s, seed %d, %d s measured, trace %d\n", o.workload, o.seed, o.seconds, trace)
	printHost(o)

	var (
		r   *run
		err error
	)
	switch o.workload {
	case wlScan:
		r, err = runScan(o)
	default:
		r, err = runPredict(o, o.workload == wlRouted)
	}
	if err != nil {
		stopAll()
		fatalf("%s: %v", o.workload, err)
	}

	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if o.trace {
		layer, err := runTraced(o, r)
		if err != nil {
			stopAll()
			fatalf("traced run: %v", err)
		}
		res.Metrics = layer
	}
	stopAll()
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	printMetrics("reported, not gated", r.reported)
	printMetrics("result metrics", res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

func printMetrics(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("-- %s\n", title)
	for _, n := range names {
		fmt.Printf("   %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printHost reports the facts a figure from this host needs beside it.
func printHost(o options) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	gmp := os.Getenv("GOMAXPROCS")
	if gmp == "" {
		gmp = fmt.Sprintf("%d (unset, Go default = usable CPUs)", runtime.NumCPU())
	}
	fmt.Printf("host: nproc %d, cpu %q, %s, GOMAXPROCS of generator and every server %s, generator connections %d\n",
		runtime.NumCPU(), cpu, runtime.Version(), gmp, o.conns)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
