package main

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"drainnas/internal/api"
)

// The int8 faults: checks every int8 operation fails on today's code. An
// operation whose only failed checks are these counts as failed; any other
// check failure makes the run incorrect.
var (
	// errInt8Bound: int8 logits outside the int8 logit-error bound.
	errInt8Bound = errors.New("int8 logits outside the quant-parity bound")
	// errInt8Echo: an int8 response that names another precision.
	errInt8Echo = errors.New("int8 response echoes another precision")
)

// int8Fault reports whether every error joined in err is an int8 fault.
func int8Fault(err error) bool {
	if err == nil {
		return false
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			if !int8Fault(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, errInt8Bound) || errors.Is(err, errInt8Echo)
}

// predictCheck validates one predict outcome against its body's oracle and
// the response-shape invariants. relErr is the worst logit error as a share
// of the oracle's logit magnitude.
func predictCheck(o *outcome, routed bool) (relErr float64, err error) {
	if o.err != nil {
		return 0, o.err
	}
	k := o.body.key
	r := o.resp
	var faults []error
	if r.Model != k.model.name || r.Precision != k.precision() {
		err := fmt.Errorf("request %d: served %s as %s, sent %s", o.idx, r.Model, r.Precision, k.key)
		if r.Model != k.model.name || !k.int8 {
			return 0, err
		}
		faults = append(faults, fmt.Errorf("%v: %w", err, errInt8Echo))
	}
	if len(r.Logits) != len(o.body.oracle) || r.Class != argmax(r.Logits) {
		return 0, fmt.Errorf("request %d: class %d does not match logits %v", o.idx, r.Class, r.Logits)
	}
	if !(r.QueuedMS >= 0 && r.QueuedMS <= r.TotalMS && r.TotalMS <= o.clientMS()) {
		return 0, fmt.Errorf("request %d: queued %.3fms, total %.3fms, client %.3fms out of order",
			o.idx, r.QueuedMS, r.TotalMS, o.clientMS())
	}
	if routed && r.Replica == "" {
		return 0, fmt.Errorf("request %d: routed response names no replica", o.idx)
	}
	relErr, ok := logitCheck(r.Logits, o.body.oracle, k.int8)
	if !ok {
		if !k.int8 {
			return relErr, fmt.Errorf("request %d (%s): logits %v differ from oracle %v", o.idx, k.key, r.Logits, o.body.oracle)
		}
		faults = append(faults, fmt.Errorf("request %d (%s): worst logit error %.1f%% of magnitude: %w",
			o.idx, k.key, 100*relErr, errInt8Bound))
	}
	return relErr, errors.Join(faults...)
}

// replicaCheck requires every replica to have served part of the load.
func replicaCheck(served map[string]int, replicas []string) error {
	for _, r := range replicas {
		if served[r] == 0 {
			return fmt.Errorf("replica %s served no request (served: %v)", r, served)
		}
	}
	return nil
}

// scanSpec is one job of the scan sequence, with what the benchmark
// computed for it on its own before timing.
type scanSpec struct {
	req   api.ScanRequest
	key   servingKey
	gridW int
	truth int
	// samples are the seeded tiles whose score is recomputed: tile ID ->
	// oracle logits of the chip the benchmark cropped itself.
	samples map[int][]float32
}

// scanCheck validates one job's complete event stream: gapless seq, tiles
// in the walk order the benchmark recomputes (row-major: ID = y*W + x), no
// failed tile, crossings and truth counts, and the sampled tiles' scores
// against the oracle.
func scanCheck(spec *scanSpec, events []api.ScanEvent) (job api.ScanJob, tiles []api.ScanTile, err error) {
	for i, ev := range events {
		if ev.Seq != i {
			return job, nil, fmt.Errorf("event %d has seq %d", i, ev.Seq)
		}
	}
	if len(events) == 0 || events[len(events)-1].Type != api.ScanEventDone || events[len(events)-1].Job == nil {
		return job, nil, fmt.Errorf("stream does not end with a done event")
	}
	job = *events[len(events)-1].Job
	if job.State != api.ScanStateDone || job.FailedTiles != 0 {
		return job, nil, fmt.Errorf("job %s ended %s with %d failed tiles (%s)", job.ID, job.State, job.FailedTiles, job.Error)
	}
	w := spec.gridW
	if job.GridW != w || job.GridH != w || job.TotalTiles != w*w {
		return job, nil, fmt.Errorf("job %s grid %dx%d, expected %dx%d", job.ID, job.GridW, job.GridH, w, w)
	}
	th := spec.req.Threshold
	crossings := 0
	for _, ev := range events {
		if ev.Type != api.ScanEventTile {
			continue
		}
		t := ev.Tile
		if t == nil {
			return job, nil, fmt.Errorf("tile event %d carries no tile", ev.Seq)
		}
		want := len(tiles)
		if t.ID != want || t.X != want%w || t.Y != want/w {
			return job, nil, fmt.Errorf("tile %d at (%d,%d) where the walk expects tile %d", t.ID, t.X, t.Y, want)
		}
		if t.Failed {
			return job, nil, fmt.Errorf("tile %d failed: %s", t.ID, t.Err)
		}
		if t.Score >= th {
			crossings++
		}
		tiles = append(tiles, *t)
	}
	if len(tiles) != w*w {
		return job, nil, fmt.Errorf("job %s streamed %d tiles of %d", job.ID, len(tiles), w*w)
	}
	if job.Crossings != crossings {
		return job, nil, fmt.Errorf("job %s reports %d crossings, %d tiles score >= %g", job.ID, job.Crossings, crossings, th)
	}
	if job.TruthCrossings != spec.truth {
		return job, nil, fmt.Errorf("job %s reports %d truth crossings, grid has %d", job.ID, job.TruthCrossings, spec.truth)
	}
	ids := make([]int, 0, len(spec.samples))
	for id := range spec.samples {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var int8Miss error
	for _, id := range ids {
		if err := scoreCheck(tiles[id].Score, spec.samples[id], spec.key.int8); err != nil {
			err = fmt.Errorf("job %s tile %d: %w", job.ID, id, err)
			if !int8Fault(err) {
				return job, tiles, err
			}
			if int8Miss == nil {
				int8Miss = err
			}
		}
	}
	return job, tiles, int8Miss
}

// scoreCheck compares a tile's served crossing score with the oracle
// logits. The score is softmax(logits)[1], so its log-odds give back the
// served logit difference; that difference may deviate from the oracle's by
// at most the sum of the two logits' tolerances.
func scoreCheck(score float64, oracle []float32, int8 bool) error {
	if len(oracle) != 2 || math.IsNaN(score) || score <= 0 || score >= 1 {
		return fmt.Errorf("score %v outside (0,1)", score)
	}
	got := math.Log(score / (1 - score))
	want := float64(oracle[1] - oracle[0])
	var tol float64
	if int8 {
		mag := math.Max(math.Abs(float64(oracle[0])), math.Abs(float64(oracle[1])))
		tol = 2 * int8RelTol * mag
	} else {
		tol = fp32Tol * (2 + math.Abs(float64(oracle[0])) + math.Abs(float64(oracle[1])))
	}
	if d := math.Abs(got - want); d > tol {
		if int8 {
			return fmt.Errorf("logit difference off by %.3g (bound %.3g): %w", d, tol, errInt8Bound)
		}
		return fmt.Errorf("logit difference %.6g, oracle %.6g (tolerance %.3g)", got, want, tol)
	}
	return nil
}
