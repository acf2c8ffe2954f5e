package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/geodata"
)

// The scan-watershed job sequence: one job per study region, alternating
// the 5-channel fp32 key and the 7-channel int8 key, on 128-pixel chips
// with a half-chip stride. The tile side is chosen so that watershed
// synthesis and tile serving each take a large share of a job.
const (
	scanTile    = 768
	scanChip    = 128
	scanStride  = 64
	scanWindow  = 8
	scanSamples = 6 // tiles per job whose score is recomputed by the oracle
	// scanCycleSeconds is about how long one cycle of four jobs takes on
	// the reference host.
	scanCycleSeconds = 10
)

// scanThreshold per key, near the untrained models' typical scores, so the
// crossing-count check compares a count that is not trivially zero.
var scanThreshold = map[string]float64{"front5": 0.65, "front7@int8": 0.42}

// scanJob is one completed job as the client saw it.
type scanJob struct {
	spec    *scanSpec
	start   time.Time
	firstMS float64
	wallMS  float64
	events  []api.ScanEvent
}

// buildScanSpecs computes, before timing, everything the checks need for
// each job of the cycle: the grid size, the ground-truth crossing count and
// the oracle logits of a seeded sample of tiles, from a watershed the
// benchmark synthesizes itself.
func buildScanSpecs(seed uint64, keys []servingKey) ([]*scanSpec, error) {
	pick := map[string]servingKey{}
	for _, k := range keys {
		pick[k.key] = k
	}
	cycle := []servingKey{pick["front5"], pick["front7@int8"]}
	var specs []*scanSpec
	for j, region := range geodata.StudyRegions {
		k := cycle[j%len(cycle)]
		req := api.ScanRequest{
			Model: k.key, Region: region.Name, TileSize: scanTile, ChipSize: scanChip,
			Stride: scanStride, Channels: k.model.channels, Seed: seed*1000 + uint64(j),
			Order: api.ScanOrderRowMajor, Window: scanWindow, Threshold: scanThreshold[k.key],
		}
		ws := geodata.GenerateWatershed(region, scanTile, req.Seed)
		grid, err := ws.Grid(scanChip, scanStride)
		if err != nil {
			return nil, err
		}
		spec := &scanSpec{req: req, key: k, gridW: grid.W, truth: grid.TruthCrossings(), samples: map[int][]float32{}}
		rng := rand.New(rand.NewPCG(seed, uint64(j)))
		for len(spec.samples) < scanSamples {
			id := rng.IntN(grid.W * grid.H)
			chip := grid.ChipAt(id%grid.W, id/grid.W)
			spec.samples[id] = k.model.oracle(chip.Tensor(k.model.channels))
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// runScanJob starts one job and follows its event stream to the end.
func runScanJob(c *api.Client, spec *scanSpec) (*scanJob, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j := &scanJob{spec: spec, start: time.Now()}
	doc, err := c.StartScan(ctx, spec.req)
	if err != nil {
		return nil, err
	}
	stream, err := c.ScanEvents(ctx, doc.ID, 0)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	for {
		ev, err := stream.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("job %s stream: %w", doc.ID, err)
		}
		if ev.Type == api.ScanEventTile && j.firstMS == 0 {
			j.firstMS = msSince(j.start)
		}
		j.events = append(j.events, ev)
		if ev.Type == api.ScanEventDone {
			break
		}
	}
	j.wallMS = msSince(j.start)
	return j, nil
}

func runScan(o options) (_ *run, err error) {
	models, keys, err := buildModels()
	if err != nil {
		return nil, err
	}
	pool, err := buildPool(keys)
	if err != nil {
		return nil, err
	}
	specs, err := buildScanSpecs(o.seed, keys)
	if err != nil {
		return nil, err
	}
	r := newRun()
	r.specs = specs
	f, setups, err := setUp(o, models, false, func(f *fleet) error { return warmPredict(f, pool, false) })
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
	client := api.NewClient(f.front.url(), api.ClientOptions{})

	before, err := fleetCounters(f)
	if err != nil {
		return nil, err
	}
	cpu0, err := f.cpuTotal()
	if err != nil {
		return nil, err
	}
	// Whole cycles, one per scanCycleSeconds of the run, so every run of a
	// given length serves the same jobs.
	var jobs []*scanJob
	start := time.Now()
	for cycle := 0; cycle < (o.seconds+scanCycleSeconds-1)/scanCycleSeconds; cycle++ {
		for _, spec := range specs {
			j, err := runScanJob(client, spec)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	wall := time.Since(start)
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

	var tileLat, first, overhead []float64
	var tiles, succeeded, int8Out, retries int
	for _, j := range jobs {
		job, ts, err := scanCheck(j.spec, j.events)
		switch {
		case err == nil:
			succeeded++
		case int8Fault(err):
			int8Out++
		default:
			r.fail("%v", err)
		}
		retries += job.Retries
		tiles += len(ts)
		first = append(first, j.firstMS)
		overhead = append(overhead, j.wallMS-job.ElapsedMS)
		for _, t := range ts {
			tileLat = append(tileLat, t.LatencyMS)
		}
		fmt.Printf("job %-12s %-12s %-11s %4d tiles, %3d crossings (truth %3d), first tile %7.1f ms, wall %7.1f ms\n",
			job.ID, job.Region, j.spec.key.key, len(ts), job.Crossings, job.TruthCrossings, j.firstMS, j.wallMS)
	}
	r.attempted, r.failed = len(jobs), int8Out
	fmt.Printf("phase scan       attempted %d jobs, succeeded %d, failed %d (int8 faults %d, errors 0); %d tiles, %d retries\n",
		len(jobs), succeeded, int8Out, int8Out, tiles, retries)
	fmt.Printf("kernels: gemm %s, qgemm %s\n", after.gemmName, after.qgemmName)
	p50, err := percentile(tileLat, 0.5)
	if err != nil {
		return nil, err
	}
	p95, err := percentile(tileLat, 0.95)
	if err != nil {
		return nil, err
	}
	r.e2e["setup_s"] = metric{median(setups), "s"}
	r.e2e["throughput_per_s"] = metric{float64(tiles) / wall.Seconds(), "1/s"}
	r.reported["latency_p50_ms"] = metric{p50, "ms"}
	r.reported["latency_p95_ms"] = metric{p95, "ms"}
	r.reported["first_tile_ms"] = metric{median(first), "ms"}
	r.e2e["server_cpu_ms_per_op"] = metric{ms(cpu1-cpu0) / float64(tiles), "ms"}
	r.e2e["peak_rss_mb"] = metric{rss, "MB"}
	fmt.Printf("setup runs: %v s; %d jobs, %d tiles in %.2f s\n", fmtFloats(setups), len(jobs), tiles, wall.Seconds())

	r.layer["front.overhead_ms"] = metric{median(overhead), "ms"}
	counterLayers(r.layer, before, after, tiles)
	return r, nil
}
