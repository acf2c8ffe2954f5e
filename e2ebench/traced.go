package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/geodata"
	"drainnas/internal/infer"
	"drainnas/internal/metrics"
	"drainnas/internal/route"
	"drainnas/internal/scan"
	"drainnas/internal/serve"
	"drainnas/internal/tenant"
	"drainnas/internal/tensor"
)

// layerUnits lists every per-layer metric the traced run reports, with its
// unit. A layer that the workload's path never calls reads 0 (route and
// the fair gate off the routed path, scan off the scan path) or 1
// (route.replica_share_max when one server takes all the load).
var layerUnits = map[string]string{
	"api.body_kb": "KB", "api.decode_ms": "ms", "api.decode_alloc_kb": "KB",
	"front.overhead_ms": "ms",
	"tenant.admit_ms":   "ms", "tenant.fair_wait_ms": "ms",
	"route.hop_ms": "ms", "route.replica_share_max": "ratio",
	"serve.queue_ms": "ms", "serve.exec_ms": "ms", "serve.batch_mean": "count", "serve.cache_misses": "count",
	"infer.fp32_5ch_b1_ms": "ms", "infer.fp32_5ch_b8_ms": "ms", "infer.fp32_7ch_b1_ms": "ms", "infer.fp32_7ch_b8_ms": "ms",
	"infer.int8_5ch_b1_ms": "ms", "infer.int8_5ch_b8_ms": "ms", "infer.int8_7ch_b1_ms": "ms", "infer.int8_7ch_b8_ms": "ms",
	"infer.load_ms": "ms", "infer.quantize_ms": "ms", "infer.arena_misses": "count",
	"tensor.gemm_calls_per_op": "count", "tensor.naive_calls_per_op": "count", "tensor.scratch_miss_ratio": "ratio",
	"scan.tile_ms": "ms", "scan.window_mean": "count", "scan.retries": "count",
	"geodata.watershed_ms": "ms", "geodata.chip_ms": "ms",
}

// tracedReplay is how many of the paced phase's arrivals the traced run
// replays: enough for a median to compare with the untraced run.
const tracedReplay = 100

// servdOptions are servd's serving options as the benchmark starts it, for
// the in-process replay.
var servdOptions = serve.Options{MaxBatch: 8, MaxDelay: 2 * time.Millisecond, QueueCap: 256, CacheCap: 4}

// traced collects what the replay measures beyond the spans.
type traced struct {
	tr   *tracer
	r    *run
	vals map[string]float64
	e2e  map[string]float64 // the traced run's own end-to-end figures
	// bodies are the workload's request bodies and decode the api layer's
	// work on one of them, for the serial allocation pass.
	bodies [][]byte
	decode func([]byte) error
}

func (t *traced) set(name string, v float64) { t.vals[name] = v }

// runTraced replays the workload's seeded inputs in-process through the
// public entry points, one span per layer call, and returns the per-layer
// metrics.
func runTraced(o options, r *run) (map[string]metric, error) {
	// The tenant tier writes one audit line per request through the
	// standard logger; keep it, as the servers do, but off the report.
	logf, err := os.Create(filepath.Join(o.workDir, "traced-audit.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	log.SetOutput(logf)
	defer log.SetOutput(os.Stderr)

	t := &traced{tr: newTracer(), r: r, vals: map[string]float64{}, e2e: map[string]float64{}}
	t.set("route.replica_share_max", 1)
	for name, m := range r.layer {
		t.set(name, m.Value)
	}
	if o.workload == wlScan {
		err = t.scanReplay(o)
	} else {
		err = t.predictReplay(o, o.workload == wlRouted)
	}
	if err != nil {
		return nil, err
	}
	if err := t.inferProbes(); err != nil {
		return nil, err
	}
	if err := t.apiAndAdmission(o.workload == wlRouted); err != nil {
		return nil, err
	}

	spans := t.tr.spans
	self := selfTimes(spans)
	layers := summarize(spans, self)
	if n, err := checkSelfSums(spans, self); err != nil {
		r.fail("span self times: %v", err)
	} else {
		fmt.Printf("-- traced run: %d spans over %d requests; each request's self times sum to its root span\n", len(spans), n)
	}
	writeSummary(os.Stdout, layers)
	if err := writeTraceFiles(o, t.tr, self, layers); err != nil {
		return nil, err
	}
	fmt.Println("-- end-to-end, untraced vs traced replay")
	names := make([]string, 0, len(t.e2e))
	for n := range t.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		untraced, ok := r.e2e[n]
		if !ok {
			untraced = r.reported[n]
		}
		fmt.Printf("   %-28s untraced %12.4f   traced %12.4f\n", n, untraced.Value, t.e2e[n])
	}

	out := map[string]metric{}
	for name, unit := range layerUnits {
		out[name] = metric{t.vals[name], unit}
	}
	return out, nil
}

func writeTraceFiles(o options, tr *tracer, self []time.Duration, layers []*layerSummary) error {
	f, err := os.Create(filepath.Join(o.workDir, "spans-"+o.workload+".tsv"))
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f, self); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	writeSummary(&sb, layers)
	return os.WriteFile(filepath.Join(o.workDir, "layers-"+o.workload+".txt"), []byte(sb.String()), 0o644)
}

// newServer builds an in-process serving core over the run's containers
// and loads every serving key.
func (t *traced) newServer() (*serve.Server, error) {
	srv := serve.NewServer(serve.DirLoader(t.r.modelsDir), servdOptions)
	for _, bodies := range t.r.pool.perKey {
		b := bodies[0]
		x := t.r.pool.chipTensor(b.chip, b.key.model.channels)
		if _, err := srv.Submit(context.Background(), b.key.key, x); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// predictReplay replays the paced phase's seeded schedule: the same
// arrivals, bodies and connection cap. predict-direct goes through api
// decoding into an in-process serve.Server with servd's options;
// predict-routed through the tenant tier, api decoding and a route.Router
// over HTTP replicas that are the real servd processes.
func (t *traced) predictReplay(o options, routed bool) error {
	pool := t.r.pool
	sched := pacedSchedule(o, len(pool.keys))[:tracedReplay]

	// The chips are cut again here, through scan.Source, to time geodata.
	for ri, region := range geodata.StudyRegions {
		req := fmt.Sprintf("pool-%d", ri)
		_, end := t.tr.open(req, "geodata.watershed", -1)
		src, err := scan.NewSource(api.ScanRequest{Region: region.Name, TileSize: poolWatershed,
			ChipSize: chipSide, Stride: chipSide, Channels: 5, Seed: poolSeed + uint64(ri)})
		end()
		if err != nil {
			return err
		}
		for i := 0; i < poolChipsPerArea; i++ {
			_, end := t.tr.open(fmt.Sprintf("%s/chip-%d", req, i), "geodata.chip", -1)
			src.ChipTensor(scan.Cell{X: i % src.Grid.W, Y: i / src.Grid.W})
			end()
		}
	}

	var (
		srv    *serve.Server
		router *route.Router
		admit  http.Handler
	)
	if routed {
		reps := make([]route.Replica, len(t.r.fleet.replicas))
		for i, p := range t.r.fleet.replicas {
			reps[i] = route.NewHTTPReplica("", p.url(), nil)
		}
		router = route.New(route.Options{Policy: &route.RoundRobin{}}, reps...)
		defer router.Close()
		tier, err := t.tier()
		if err != nil {
			return err
		}
		admit = tier.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	} else {
		var err error
		if srv, err = t.newServer(); err != nil {
			return err
		}
		defer srv.Close()
	}

	type res struct {
		lat, queued, exec, hop float64
		batch                  int
		replica                string
	}
	results := make([]res, len(sched))
	var failed atomic.Int64
	handle := func(i int, b *body, due time.Time) {
		rid := fmt.Sprintf("req-%d", i)
		root, endRoot := t.tr.open(rid, "request", -1)
		defer endRoot()
		if routed {
			_, end := t.tr.open(rid, "tenant.admit", root)
			hr := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b.json))
			hr.Header.Set("Authorization", "Bearer "+tenantKeys[i%len(tenantKeys)])
			rec := httptest.NewRecorder()
			admit.ServeHTTP(rec, hr)
			end()
			if rec.Code != http.StatusOK {
				t.r.fail("traced %s: tenant tier answered %d", rid, rec.Code)
				return
			}
		}
		_, end := t.tr.open(rid, "api.decode", root)
		var req api.PredictRequest
		err := json.Unmarshal(b.json, &req)
		var x *tensor.Tensor
		var key string
		if err == nil {
			x, err = req.Tensor()
		}
		if err == nil {
			key, err = req.ResolveKey()
		}
		var class route.SLOClass
		if err == nil && routed {
			class, err = route.ParseClass(req.SLO)
		}
		end()
		if err != nil {
			t.r.fail("traced %s: decoding: %v", rid, err)
			return
		}
		var resp serve.Response
		var replica string
		var hop float64
		if routed {
			sid, end := t.tr.open(rid, "route.submit", root)
			rr, err := router.SubmitClass(context.Background(), class, key, x)
			end()
			if err != nil {
				t.r.fail("traced %s: route: %v", rid, err)
				return
			}
			resp, replica = rr.Response, rr.Replica
			s := t.tr.get(sid)
			hop = ms(s.end.Sub(s.start) - resp.Total)
			t.tr.serveSpans(t.tr.within(sid, "replica", s.end, resp.Total), s.end, resp)
		} else {
			sid, end := t.tr.open(rid, "serve.submit", root)
			resp, err = srv.Submit(context.Background(), key, x)
			end()
			if err != nil {
				t.r.fail("traced %s: serve: %v", rid, err)
				return
			}
			t.tr.serveSpans(sid, t.tr.get(sid).end, resp)
		}
		if _, ok := logitCheck(resp.Logits, b.oracle, b.key.int8); !ok {
			if !b.key.int8 {
				t.r.fail("traced %s (%s): logits %v differ from oracle %v", rid, b.key.key, resp.Logits, b.oracle)
			}
			failed.Add(1)
		}
		results[i] = res{lat: msSince(due), queued: ms(resp.Queued), exec: ms(resp.Total - resp.Queued),
			hop: hop, batch: resp.BatchSize, replica: replica}
	}

	openLoop(sched, o.conns, func(i int, due time.Time) { handle(i, pool.requestAt(o.seed, i), due) })

	var lat, queued, exec, hops, batch []float64
	shares := map[string]int{}
	for _, x := range results {
		if x.batch == 0 {
			continue // failed above
		}
		lat = append(lat, x.lat)
		queued = append(queued, x.queued)
		exec = append(exec, x.exec)
		hops = append(hops, x.hop)
		batch = append(batch, float64(x.batch))
		shares[x.replica]++
	}
	fmt.Printf("traced replay: first %d paced arrivals, %d int8 results outside the bound\n", len(lat), failed.Load())
	if p, err := percentile(lat, 0.5); err == nil {
		t.e2e["latency_p50_ms"] = p
	}
	t.set("serve.queue_ms", median(queued))
	t.set("serve.exec_ms", median(exec))
	t.set("serve.batch_mean", mean(batch))
	t.set("geodata.watershed_ms", median(durations(t.tr.spans, "geodata.watershed")))
	t.set("geodata.chip_ms", median(durations(t.tr.spans, "geodata.chip")))
	if routed {
		t.set("route.hop_ms", median(hops))
		most := 0
		for _, c := range shares {
			most = max(most, c)
		}
		t.set("route.replica_share_max", float64(most)/float64(len(lat)))
	}
	for _, bodies := range pool.perKey {
		for _, b := range bodies {
			t.bodies = append(t.bodies, b.json)
		}
	}
	t.decode = func(raw []byte) error {
		var req api.PredictRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return err
		}
		_, err := req.Tensor()
		return err
	}
	return nil
}

// tier builds an in-process tenant tier with the router's settings.
func (t *traced) tier() (*tenant.Tier, error) {
	path := filepath.Join(t.r.modelsDir, "..", "bench-keys.json")
	if err := writeKeyFile(path); err != nil {
		return nil, err
	}
	auth, err := tenant.LoadAuthenticator(path, time.Hour, nil)
	if err != nil {
		return nil, err
	}
	return tenant.NewTier(tenant.TierOptions{Auth: auth, Inflight: tenantInflight,
		Stats: &metrics.TenantStats{}, Service: "e2ebench"}), nil
}

// tracedBackend is the scan layer's timing decorator: each Classify is one
// traced tile request, submitted to the in-process serving core.
type tracedBackend struct {
	tr    *tracer
	srv   *serve.Server
	job   string
	tiles atomic.Int64
	mu    sync.Mutex
	batch []float64
	queue []float64
	exec  []float64
}

func (b *tracedBackend) Classify(ctx context.Context, model string, input *tensor.Tensor) (scan.Result, error) {
	rid := fmt.Sprintf("%s/tile-%d", b.job, b.tiles.Add(1))
	root, endRoot := b.tr.open(rid, "scan.tile", -1)
	defer endRoot()
	sid, end := b.tr.open(rid, "serve.submit", root)
	resp, err := b.srv.Submit(ctx, model, input)
	end()
	if err != nil {
		return scan.Result{}, err
	}
	b.tr.serveSpans(sid, b.tr.get(sid).end, resp)
	b.mu.Lock()
	b.batch = append(b.batch, float64(resp.BatchSize))
	b.queue = append(b.queue, ms(resp.Queued))
	b.exec = append(b.exec, ms(resp.Total-resp.Queued))
	b.mu.Unlock()
	return scan.Result{Class: resp.Class, Logits: resp.Logits, BatchSize: resp.BatchSize}, nil
}

// scanReplay runs one cycle of the job sequence in-process: request
// decoding, watershed synthesis (scan.NewSource) and scan.Run over a timed
// backend on an in-process serve.Server with servd's options.
func (t *traced) scanReplay(o options) error {
	srv, err := t.newServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	var first, tileLat, runMS []float64
	var tiles, retries int
	be := &tracedBackend{tr: t.tr, srv: srv}
	t.decode = func(raw []byte) error {
		var req api.ScanRequest
		return json.Unmarshal(raw, &req)
	}
	start := time.Now()
	for j, spec := range t.r.specs {
		rid := fmt.Sprintf("job-%d", j)
		be.job = rid
		jobStart := time.Now()
		root, endRoot := t.tr.open(rid, "scan.job", -1)
		raw, err := json.Marshal(spec.req)
		if err != nil {
			return err
		}
		t.bodies = append(t.bodies, raw)
		_, end := t.tr.open(rid, "api.decode", root)
		var req api.ScanRequest
		err = json.Unmarshal(raw, &req)
		req = req.WithDefaults()
		if err == nil {
			err = req.Validate()
		}
		var key string
		if err == nil {
			key, err = api.ResolveServingKey(req.Model, req.Precision)
		}
		end()
		if err != nil {
			return fmt.Errorf("decoding scan request: %w", err)
		}
		_, end = t.tr.open(rid, "geodata.watershed", root)
		src, err := scan.NewSource(req)
		end()
		if err != nil {
			return err
		}
		var events []api.ScanEvent
		firstTile := 0.0
		sid, end := t.tr.open(rid, "scan.run", root)
		scan.Run(context.Background(), scan.Config{
			Req: req, Model: key, Backend: be, Source: src, Stats: &metrics.ScanStats{},
			Job: api.ScanJob{ID: rid, Model: key, Region: req.Region, Order: req.Order, Seed: req.Seed},
		}, func(ev api.ScanEvent, _ api.ScanJob) {
			if ev.Type == api.ScanEventTile && firstTile == 0 {
				firstTile = msSince(jobStart)
			}
			events = append(events, ev)
		})
		end()
		endRoot()
		s := t.tr.get(sid)
		runMS = append(runMS, ms(s.end.Sub(s.start)))
		job, ts, err := scanCheck(spec, events)
		if err != nil && !int8Fault(err) {
			t.r.fail("traced %s: %v", rid, err)
		}
		first = append(first, firstTile)
		tiles += len(ts)
		retries += job.Retries
		for _, tile := range ts {
			tileLat = append(tileLat, tile.LatencyMS)
		}
		cells, err := scan.Walk(req.Order, src.Grid.W, src.Grid.H)
		if err != nil {
			return err
		}
		for i, c := range cells {
			_, end := t.tr.open(fmt.Sprintf("%s/chip-%d", rid, i), "geodata.chip", -1)
			src.ChipTensor(c)
			end()
		}
	}
	wall := time.Since(start)
	tileMS := durations(t.tr.spans, "scan.tile")
	var busy float64
	for _, d := range tileMS {
		busy += d
	}
	var serving float64
	for _, d := range runMS {
		serving += d
	}
	t.e2e["first_tile_ms"] = median(first)
	if p, err := percentile(tileLat, 0.5); err == nil {
		t.e2e["latency_p50_ms"] = p
	}
	if p, err := percentile(tileLat, 0.95); err == nil {
		t.e2e["latency_p95_ms"] = p
	}
	t.e2e["throughput_per_s"] = float64(tiles) / wall.Seconds()
	t.set("scan.tile_ms", median(tileMS))
	t.set("scan.window_mean", busy/serving)
	t.set("scan.retries", float64(retries))
	t.set("serve.queue_ms", median(be.queue))
	t.set("serve.exec_ms", median(be.exec))
	t.set("serve.batch_mean", mean(be.batch))
	t.set("geodata.watershed_ms", median(durations(t.tr.spans, "geodata.watershed")))
	t.set("geodata.chip_ms", median(durations(t.tr.spans, "geodata.chip")))
	return nil
}

// inferProbes times LoadPlan and QuantizeSynthetic per container, and
// Session.Forward per serving key at batch 1 and batch 8 on pool chips.
func (t *traced) inferProbes() error {
	const loadReps, b1Reps, b8Reps = 3, 9, 5
	pool := t.r.pool
	for _, m := range t.r.models {
		var plan *infer.Plan
		for i := 0; i < loadReps; i++ {
			_, end := t.tr.open(fmt.Sprintf("probe/%s/load-%d", m.name, i), "infer.load", -1)
			p, err := infer.LoadPlan(bytes.NewReader(m.container))
			end()
			if err != nil {
				return err
			}
			plan = p
		}
		var qplan *infer.Plan
		for i := 0; i < loadReps; i++ {
			_, end := t.tr.open(fmt.Sprintf("probe/%s/quantize-%d", m.name, i), "infer.quantize", -1)
			q, err := plan.QuantizeSynthetic(serve.QuantCalibSize)
			end()
			if err != nil {
				return err
			}
			qplan = q
		}
		x1 := pool.chipTensor(0, m.channels)
		x8 := tensor.New(8, m.channels, chipSide, chipSide)
		plane := m.channels * chipSide * chipSide
		for i := 0; i < 8; i++ {
			copy(x8.Data()[i*plane:(i+1)*plane], pool.chipTensor(i%len(pool.chips), m.channels).Data())
		}
		for _, p := range []*infer.Plan{plan, qplan} {
			sess := p.NewSession()
			for _, c := range []struct {
				x    *tensor.Tensor
				b    string
				reps int
			}{{x1, "b1", b1Reps}, {x8, "b8", b8Reps}} {
				if _, err := sess.Forward(c.x); err != nil { // builds the arena for the shape
					return err
				}
				name := fmt.Sprintf("infer.%s_%dch_%s_ms", p.Precision(), m.channels, c.b)
				var d []float64
				for i := 0; i < c.reps; i++ {
					_, end := t.tr.open(fmt.Sprintf("probe/%s/%s/%s-%d", m.name, p.Precision(), c.b, i), "infer.forward", -1)
					t0 := time.Now()
					_, err := sess.Forward(c.x)
					d = append(d, msSince(t0))
					end()
					if err != nil {
						return err
					}
				}
				t.set(name, median(d))
			}
		}
	}
	t.set("infer.load_ms", median(durations(t.tr.spans, "infer.load")))
	t.set("infer.quantize_ms", median(durations(t.tr.spans, "infer.quantize")))
	return nil
}

// apiAndAdmission fills the api layer from the replay's decode spans plus
// a serial pass that counts allocation, and times the tenant tier's
// admission around a no-op handler on the workload's real bodies (on
// predict-routed those spans come from the replay itself).
func (t *traced) apiAndAdmission(routed bool) error {
	var kb float64
	for _, b := range t.bodies {
		kb += float64(len(b)) / 1024
	}
	t.set("api.body_kb", kb/float64(len(t.bodies)))
	t.set("api.decode_ms", median(durations(t.tr.spans, "api.decode")))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range t.bodies {
		if err := t.decode(b); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	t.set("api.decode_alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(t.bodies)))

	if !routed {
		tier, err := t.tier()
		if err != nil {
			return err
		}
		admit := tier.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		for i, b := range t.bodies {
			_, end := t.tr.open(fmt.Sprintf("admit-%d", i), "tenant.admit", -1)
			hr := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b))
			hr.Header.Set("Authorization", "Bearer "+tenantKeys[i%len(tenantKeys)])
			rec := httptest.NewRecorder()
			admit.ServeHTTP(rec, hr)
			end()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("tenant tier answered %d", rec.Code)
			}
		}
	}
	t.set("tenant.admit_ms", median(durations(t.tr.spans, "tenant.admit")))
	return nil
}
