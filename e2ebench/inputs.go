package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"drainnas/internal/api"
	"drainnas/internal/geodata"
	"drainnas/internal/tensor"
)

// Predict bodies are 128×128 chips cut from geodata watersheds, one small
// watershed per study region. The chip pool is fixed (it does not depend on
// the run's seed): every int8 response misses the int8 bound on today's
// code, and keeping those failing inputs seed-independent keeps the failed
// share identical on every run. The seed drives everything else: the
// arrival schedule, each round's key order and the body drawn per request.
const (
	chipSide         = 128
	poolWatershed    = 256
	poolChipsPerArea = 2
	poolSeed         = 0x5eed
)

// body is one pre-encoded predict request with its oracle logits.
type body struct {
	key    servingKey
	chip   int
	json   []byte
	oracle []float32
}

// bodyPool holds every distinct body, indexed per serving key.
type bodyPool struct {
	keys   []servingKey
	perKey [][]*body
	chips  []*geodata.Chip
}

// buildPool synthesizes the pool's watersheds, crops the chips, encodes one
// body per (key, chip) and computes each chip's oracle logits once per model.
func buildPool(keys []servingKey) (*bodyPool, error) {
	p := &bodyPool{keys: keys, perKey: make([][]*body, len(keys))}
	for ri, region := range geodata.StudyRegions {
		grid, err := geodata.GenerateWatershed(region, poolWatershed, poolSeed+uint64(ri)).Grid(chipSide, chipSide)
		if err != nil {
			return nil, err
		}
		for i := 0; i < poolChipsPerArea; i++ {
			c := grid.ChipAt(i%grid.W, i/grid.W)
			p.chips = append(p.chips, &c)
		}
	}
	oracles := map[*pinnedModel][][]float32{}
	for ki, k := range keys {
		if _, ok := oracles[k.model]; !ok {
			for _, c := range p.chips {
				oracles[k.model] = append(oracles[k.model], k.model.oracle(c.Tensor(k.model.channels)))
			}
		}
		for ci, c := range p.chips {
			x := c.Tensor(k.model.channels)
			raw, err := json.Marshal(api.PredictRequest{
				Model: k.key, Shape: []int{k.model.channels, chipSide, chipSide}, Data: x.Data(),
			})
			if err != nil {
				return nil, err
			}
			p.perKey[ki] = append(p.perKey[ki], &body{
				key: k, chip: ci, json: raw, oracle: oracles[k.model][ci],
			})
		}
	}
	return p, nil
}

// chipTensor returns pool chip i laid out for a model's channel count.
func (p *bodyPool) chipTensor(i, channels int) *tensor.Tensor { return p.chips[i].Tensor(channels) }

// requestAt returns the body of request i of the seeded stream. Requests
// come in rounds of one per serving key, in a per-round shuffled order, so
// any whole number of rounds splits evenly over the keys.
func (p *bodyPool) requestAt(seed uint64, i int) *body {
	n := len(p.keys)
	round, pos := i/n, i%n
	rng := rand.New(rand.NewPCG(seed, uint64(round)))
	perm := rng.Perm(n)
	var b *body
	for j := 0; j <= pos; j++ {
		bodies := p.perKey[perm[j]]
		b = bodies[rng.IntN(len(bodies))]
	}
	return b
}

// roundUp rounds n up to a whole number of rounds.
func roundUp(n, round int) int { return (n + round - 1) / round * round }

// poissonSchedule returns n arrival offsets with exponential gaps at rate
// per second, drawn by stratified sampling: the gaps are the n exponential
// quantiles at the midpoints of n equal-probability strata, in a seeded
// random order. Every run thus offers the same gaps and the same mean load,
// and seeds differ only in where the bursts fall. It is a pure function of
// (seed, rate, n).
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	if rate <= 0 {
		panic(fmt.Sprintf("poisson rate %g", rate))
	}
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / rate
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
	out := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
