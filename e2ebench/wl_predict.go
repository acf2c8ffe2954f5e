package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"drainnas/internal/api"
)

// pacedRate is each predict workload's open-loop arrival rate in requests
// per second, fixed so that a parent commit and a change are offered the
// same load: a third (direct) and two fifths (routed) of the saturation
// throughput measured on the reference host. At half, bursts queued behind
// the two connections and the paced p95 varied too much between runs to
// bound a regression (see README).
var pacedRate = map[string]float64{wlDirect: 10, wlRouted: 5}

const (
	// pacedShare of the measured seconds goes to the paced phase, the rest
	// to the closed-loop saturation phase.
	pacedShare = 0.7
	// minPaced paced requests give p95 at least ten samples beyond it.
	minPaced = 200
)

// servdStats fetches and decodes one servd's /v1/stats.
func servdStats(p *proc) (api.ServdStats, error) {
	var s api.ServdStats
	return s, getJSON(p.url()+"/v1/stats", &s)
}

func getJSON(url string, v any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(raw, v)
}

// counters is the sum of the servd counters the per-layer metrics read.
type counters struct {
	gemm, naive, scratchHits, scratchMisses, arenaMisses, cacheMisses uint64
	gemmName, qgemmName                                               string
}

func fleetCounters(f *fleet) (counters, error) {
	var c counters
	for _, p := range f.replicas {
		s, err := servdStats(p)
		if err != nil {
			return c, err
		}
		c.gemm += s.Kernel.GemmCalls
		c.naive += s.Kernel.NaiveCalls
		c.scratchHits += s.Kernel.ScratchHits
		c.scratchMisses += s.Kernel.ScratchMisses
		c.arenaMisses += s.Infer.ArenaMisses
		c.cacheMisses += s.Cache.Misses
		c.gemmName, c.qgemmName = s.Gemm, s.QGemm
	}
	return c, nil
}

// counterLayers turns counter deltas over the timed phases into the
// kernel, arena and cache layer figures, per operation where it says so.
func counterLayers(layer map[string]metric, before, after counters, ops int) {
	n := float64(ops)
	layer["tensor.gemm_calls_per_op"] = metric{float64(after.gemm-before.gemm) / n, "count"}
	layer["tensor.naive_calls_per_op"] = metric{float64(after.naive-before.naive) / n, "count"}
	hits, misses := after.scratchHits-before.scratchHits, after.scratchMisses-before.scratchMisses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(misses) / float64(hits+misses)
	}
	layer["tensor.scratch_miss_ratio"] = metric{ratio, "ratio"}
	layer["infer.arena_misses"] = metric{float64(after.arenaMisses - before.arenaMisses), "count"}
	layer["serve.cache_misses"] = metric{float64(after.cacheMisses - before.cacheMisses), "count"}
}

// setUp writes the containers, starts the fleet and runs warm-up until every
// serving key is loaded (and quantized) on every replica, setupReps times;
// it returns the last fleet, still running, and each set-up's seconds.
func setUp(o options, models []*pinnedModel, routed bool, warm func(*fleet) error) (*fleet, []float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := writeContainers(filepath.Join(dir, "models"), models); err != nil {
			return nil, nil, err
		}
		f, err := startFleet(o.binDir, dir, routed)
		if err != nil {
			return nil, nil, err
		}
		if err := warm(f); err != nil {
			f.stop()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == setupReps-1 {
			return f, secs, nil
		}
		f.stop()
	}
	panic("unreachable")
}

// warmPredict sends one request per serving key to every replica, loading
// and quantizing each key, then (for a routed fleet) one per key through the
// router.
func warmPredict(f *fleet, pool *bodyPool, routed bool) error {
	post := func(base string, b *body, idx int) error {
		c := newLoadClient(base, 1, base == f.front.url() && routed)
		defer c.close()
		o := &outcome{idx: idx, body: b}
		c.do(o)
		return o.err
	}
	// Replicas warm in parallel, as a deployment would bring them up.
	errs := make(chan error, len(f.replicas))
	for _, rep := range f.replicas {
		go func(rep *proc) {
			for ki := range pool.keys {
				if err := post(rep.url(), pool.perKey[ki][0], ki); err != nil {
					errs <- fmt.Errorf("%s %s: %w", rep.name, pool.keys[ki].key, err)
					return
				}
			}
			errs <- nil
		}(rep)
	}
	var first error
	for range f.replicas {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	if routed {
		for ki := range pool.keys {
			if err := post(f.front.url(), pool.perKey[ki][0], ki); err != nil {
				return fmt.Errorf("router %s: %w", pool.keys[ki].key, err)
			}
		}
	}
	return nil
}

// phaseCount tallies one phase's operations for the report.
type phaseCount struct {
	name                          string
	attempted, succeeded, int8Out int
	errors                        int
}

func runPredict(o options, routed bool) (_ *run, err error) {
	models, keys, err := buildModels()
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(keys)
	if err != nil {
		return nil, err
	}
	r := newRun()
	f, setups, err := setUp(o, models, routed, func(f *fleet) error { return warmPredict(f, pool, routed) })
	if err != nil {
		return nil, err
	}
	r.fleet, r.models, r.pool = f, models, pool
	r.modelsDir = filepath.Join(o.workDir, fmt.Sprintf("setup-%d", setupReps-1), "models")
	defer func() {
		if err != nil {
			f.stop()
		}
	}()

	sched := pacedSchedule(o, len(keys))
	n := len(sched)
	satFor := time.Duration((1 - pacedShare) * float64(o.seconds) * float64(time.Second))
	client := newLoadClient(f.front.url(), o.conns, routed)
	defer client.close()

	before, err := fleetCounters(f)
	if err != nil {
		return nil, err
	}
	cpu0, err := f.cpuTotal()
	if err != nil {
		return nil, err
	}
	paced := pacedPhase(client, pool, o.seed, sched, o.conns)
	sat, satDur := saturationPhase(client, pool, o.seed, n, satFor, o.conns)
	cpu1, err := f.cpuTotal()
	if err != nil {
		return nil, err
	}
	after, err := fleetCounters(f)
	if err != nil {
		return nil, err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	var fairWaitMS float64
	if routed {
		var rs api.RouterStats
		if err := getJSON(f.front.url()+"/v1/stats", &rs); err != nil {
			return nil, err
		}
		if rs.Tenant != nil {
			var sum, cnt float64
			for _, t := range rs.Tenant.PerTenant {
				sum += t.QueueWait.Sum.Seconds() * 1000
				cnt += float64(t.QueueWait.Count)
			}
			if cnt > 0 {
				fairWaitMS = sum / cnt
			}
		}
	}

	// Checks: every response against its body's oracle and invariants.
	served := map[string]int{}
	faultSeen := map[error]int{}
	var agree, int8Total int
	var overhead []float64
	count := func(name string, outs []*outcome) phaseCount {
		pc := phaseCount{name: name, attempted: len(outs)}
		for _, oc := range outs {
			_, err := predictCheck(oc, routed)
			switch {
			case err == nil:
				pc.succeeded++
			case int8Fault(err):
				pc.int8Out++
				for _, e := range []error{errInt8Bound, errInt8Echo} {
					if errors.Is(err, e) {
						faultSeen[e]++
					}
				}
			case oc.err != nil:
				pc.errors++
				r.problems = append(r.problems, err.Error())
			default:
				r.fail("%v", err)
			}
			if oc.err == nil {
				served[oc.resp.Replica]++
				if oc.body.key.int8 {
					int8Total++
					if oc.resp.Class == argmax(oc.body.oracle) {
						agree++
					}
				}
			}
		}
		return pc
	}
	phases := []phaseCount{count("paced", paced), count("saturation", sat)}
	if routed {
		urls := make([]string, len(f.replicas))
		for i, rep := range f.replicas {
			urls[i] = rep.url()
		}
		if err := replicaCheck(served, urls); err != nil {
			r.fail("%v", err)
		}
	}
	for _, pc := range phases {
		r.attempted += pc.attempted
		r.failed += pc.int8Out + pc.errors
		fmt.Printf("phase %-10s attempted %d, succeeded %d, failed %d (int8 faults %d, errors %d)\n",
			pc.name, pc.attempted, pc.succeeded, pc.int8Out+pc.errors, pc.int8Out, pc.errors)
	}
	for _, e := range []error{errInt8Bound, errInt8Echo} {
		if faultSeen[e] > 0 {
			fmt.Printf("int8 fault %q on %d operations\n", e, faultSeen[e])
		}
	}
	if int8Total > 0 {
		fmt.Printf("int8 top-1 agreement with the fp32 oracle: %d/%d (reported, not gated: the models are untrained)\n", agree, int8Total)
	}

	var lat, first, late []float64
	for _, oc := range paced {
		if oc.err != nil {
			continue
		}
		lat = append(lat, oc.latencyMS())
		first = append(first, oc.firstMS())
		late = append(late, ms(oc.sent.Sub(oc.due)))
		overhead = append(overhead, oc.clientMS()-oc.resp.TotalMS)
	}
	fmt.Printf("paced generator: %d arrivals at %.1f/s, lateness p50 %.3f ms, max %.3f ms\n",
		len(paced), pacedRate[o.workload], median(late), maxOf(late))
	fmt.Printf("kernels: gemm %s, qgemm %s\n", after.gemmName, after.qgemmName)
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(lat, 0.95)
	if err != nil {
		return nil, err
	}
	ops := len(paced) + len(sat)
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.e2e["throughput_per_s"] = metric{float64(len(sat)) / satDur.Seconds(), "1/s"}
	r.reported["latency_p50_ms"] = metric{p50, "ms"}
	r.reported["latency_p95_ms"] = metric{p95, "ms"}
	r.reported["first_tile_ms"] = metric{median(first), "ms"}
	r.e2e["server_cpu_ms_per_op"] = metric{ms(cpu1-cpu0) / float64(ops), "ms"}
	r.e2e["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Printf("setup runs: %v s; paced samples %d; saturation %d requests in %.2f s\n",
		fmtFloats(setups), len(lat), len(sat), satDur.Seconds())

	r.layer["front.overhead_ms"] = metric{median(overhead), "ms"}
	r.layer["tenant.fair_wait_ms"] = metric{fairWaitMS, "ms"}
	counterLayers(r.layer, before, after, ops)
	return r, nil
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return fmt.Sprint(s)
}
