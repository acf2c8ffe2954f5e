package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"drainnas/internal/api"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it; want refusal")
	}
	xs = append(xs, 199)
	p, err := percentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if p != 189 {
		t.Fatalf("p95 = %v, want nearest-rank 189", p)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it; want refusal")
	}
}

func TestPoissonScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := poissonSchedule(7, 10, 500)
	b := poissonSchedule(7, 10, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 10, 500)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if span := a[len(a)-1]; span < 49*time.Second || span > 51*time.Second {
		t.Fatalf("500 arrivals at 10/s end at %v, want about 50s", span)
	}
}

func TestRequestStreamSplitsRoundsEvenly(t *testing.T) {
	keys := []servingKey{{key: "a"}, {key: "b"}, {key: "c"}, {key: "d"}}
	p := &bodyPool{keys: keys, perKey: make([][]*body, len(keys))}
	for ki, k := range keys {
		for c := 0; c < 3; c++ {
			p.perKey[ki] = append(p.perKey[ki], &body{key: k, chip: c})
		}
	}
	count := map[string]int{}
	for i := 0; i < 4*50; i++ {
		b := p.requestAt(3, i)
		if b != p.requestAt(3, i) {
			t.Fatalf("request %d differs between calls", i)
		}
		count[b.key.key]++
	}
	for _, k := range keys {
		if count[k.key] != 50 {
			t.Fatalf("key %s sent %d times in 50 rounds: %v", k.key, count[k.key], count)
		}
	}
}

func testOutcome(int8 bool, logits []float32) *outcome {
	m := &pinnedModel{name: "front5", channels: 5}
	k := servingKey{key: "front5", model: m, int8: int8}
	prec := "fp32"
	if int8 {
		k.key, prec = "front5@int8", "int8"
	}
	now := time.Now()
	return &outcome{
		idx:  1,
		body: &body{key: k, oracle: []float32{1.5, -2.5}},
		sent: now, done: now.Add(10 * time.Millisecond),
		resp: api.PredictResponse{Model: "front5", Precision: prec, Class: argmax(logits), Logits: logits,
			QueuedMS: 1, TotalMS: 5, Replica: "r1"},
	}
}

func TestPredictCheckRejectsPerturbedLogit(t *testing.T) {
	if _, err := predictCheck(testOutcome(false, []float32{1.5, -2.5}), true); err != nil {
		t.Fatalf("exact logits rejected: %v", err)
	}
	_, err := predictCheck(testOutcome(false, []float32{1.5, -2.49}), true)
	if err == nil || int8Fault(err) {
		t.Fatalf("perturbed fp32 logit: got %v, want a hard failure", err)
	}
	if _, err := predictCheck(testOutcome(true, []float32{1.52, -2.45}), true); err != nil {
		t.Fatalf("int8 logits within 6%% rejected: %v", err)
	}
	_, err = predictCheck(testOutcome(true, []float32{0.8, -1.2}), true)
	if !errors.Is(err, errInt8Bound) || !int8Fault(err) {
		t.Fatalf("int8 logits at half magnitude: got %v, want the int8 bound fault", err)
	}
	o := testOutcome(false, []float32{1.5, -2.5})
	o.resp.TotalMS = 20 // beyond the client's own 10 ms
	if _, err := predictCheck(o, true); err == nil {
		t.Fatal("total_ms above client latency accepted")
	}
	o = testOutcome(false, []float32{1.5, -2.5})
	o.resp.Replica = ""
	if _, err := predictCheck(o, true); err == nil {
		t.Fatal("routed response without a replica accepted")
	}
}

func TestReplicaCheckRejectsSingleReplicaRun(t *testing.T) {
	reps := []string{"http://a", "http://b"}
	if err := replicaCheck(map[string]int{"http://a": 5, "http://b": 4}, reps); err != nil {
		t.Fatal(err)
	}
	if err := replicaCheck(map[string]int{"http://a": 9}, reps); err == nil {
		t.Fatal("run served by one replica accepted")
	}
}

// scanFixture is a 3×3 fp32 job whose every tile scores 0.25 except tile
// 4, and whose sampled tile 4 has oracle logits matching its score.
func scanFixture() (*scanSpec, []api.ScanEvent) {
	spec := &scanSpec{
		req:   api.ScanRequest{Threshold: 0.5},
		key:   servingKey{key: "front5", model: &pinnedModel{name: "front5"}},
		gridW: 3, truth: 2,
		samples: map[int][]float32{4: {0, 1}},
	}
	var evs []api.ScanEvent
	crossings := 0
	for id := 0; id < 9; id++ {
		score := 0.25
		if id == 4 {
			score = 1 / (1 + 1/2.718281828459045) // softmax([0,1])[1]
			crossings++
		}
		evs = append(evs, api.ScanEvent{Type: api.ScanEventTile, Seq: id,
			Tile: &api.ScanTile{ID: id, X: id % 3, Y: id / 3, Score: score}})
	}
	evs = append(evs, api.ScanEvent{Type: api.ScanEventDone, Seq: 9, Job: &api.ScanJob{
		ID: "scan-1", State: api.ScanStateDone, GridW: 3, GridH: 3, TotalTiles: 9,
		DoneTiles: 9, Crossings: crossings, TruthCrossings: 2}})
	return spec, evs
}

func TestScanCheckRejectsCorruptStreams(t *testing.T) {
	spec, evs := scanFixture()
	if _, _, err := scanCheck(spec, evs); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	corrupt := map[string]func([]api.ScanEvent) []api.ScanEvent{
		"swapped tile": func(e []api.ScanEvent) []api.ScanEvent {
			e[2].Tile, e[3].Tile = e[3].Tile, e[2].Tile
			return e
		},
		"missing tile": func(e []api.ScanEvent) []api.ScanEvent {
			e = append(e[:5], e[6:]...)
			for i := range e {
				e[i].Seq = i
			}
			return e
		},
		"seq gap": func(e []api.ScanEvent) []api.ScanEvent { e[7].Seq = 8; return e },
		"perturbed score": func(e []api.ScanEvent) []api.ScanEvent {
			t := *e[4].Tile
			t.Score += 1e-3
			e[4].Tile = &t
			return e
		},
		"crossing count": func(e []api.ScanEvent) []api.ScanEvent {
			j := *e[9].Job
			j.Crossings++
			e[9].Job = &j
			return e
		},
		"truth count": func(e []api.ScanEvent) []api.ScanEvent {
			j := *e[9].Job
			j.TruthCrossings = 3
			e[9].Job = &j
			return e
		},
	}
	for name, f := range corrupt {
		spec, evs := scanFixture()
		if _, _, err := scanCheck(spec, f(evs)); err == nil || int8Fault(err) {
			t.Errorf("%s: got %v, want a hard failure", name, err)
		}
	}
}

func TestSpanSelfTimesSumToRoot(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("req-1", "request", -1, at(0), at(100))
	dec := tr.add("req-1", "api.decode", root, at(1), at(31))
	sub := tr.add("req-1", "serve.submit", root, at(31), at(99))
	tr.within(sub, "serve.exec", at(99), 50*time.Millisecond)
	tr.within(sub, "serve.queue", at(49), 10*time.Millisecond)
	self := selfTimes(tr.spans)
	if self[root] != 2*time.Millisecond || self[dec] != 30*time.Millisecond || self[sub] != 8*time.Millisecond {
		t.Fatalf("self times %v", self)
	}
	if n, err := checkSelfSums(tr.spans, self); err != nil || n != 1 {
		t.Fatalf("checkSelfSums = %d, %v", n, err)
	}
	var sb strings.Builder
	if err := tr.writeSpans(&sb, self); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 6 {
		t.Fatalf("span dump has %d lines, want header + 5:\n%s", lines, sb.String())
	}
	// A child that spills past its parent breaks the identity.
	tr.add("req-1", "stray", dec, at(20), at(40))
	self = selfTimes(tr.spans)
	if _, err := checkSelfSums(tr.spans, self); err == nil {
		t.Fatal("spilling child span accepted")
	}
}
