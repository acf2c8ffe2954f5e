package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"drainnas/internal/infer"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// The serving models are the paper's Table 4 non-dominated stems, pinned
// here rather than recomputed by a NAS run: 3×3/2 conv with padding 1, a
// 3×3/2 max-pool, width 32, at 5 and 7 input channels. Weights are
// untrained, drawn from fixed seeds, so the containers are byte-identical on
// every run and every commit.
func frontConfig(channels int) resnet.Config {
	return resnet.Config{
		Channels: channels, Batch: 8,
		KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 32, NumClasses: 2,
	}
}

// pinnedModel is one exported container plus the training-stack model the
// output oracle runs.
type pinnedModel struct {
	name      string
	channels  int
	model     *resnet.Model
	container []byte
}

// servingKey is one of the four keys every workload serves: each model at
// fp32 and at int8.
type servingKey struct {
	key   string // the wire key, "front5" or "front5@int8"
	model *pinnedModel
	int8  bool
}

func (k servingKey) precision() string {
	if k.int8 {
		return string(infer.PrecisionInt8)
	}
	return string(infer.PrecisionFP32)
}

// Output-check tolerances, taken from the repository's own gates:
// fp32Tol is the three-way parity tolerance of internal/infer (training
// stack vs interpreter vs compiled plan, |got-want| <= tol*(1+|want|)), and
// int8RelTol is the documented int8 bound of make quant-parity (worst logit
// error within 6% of the float oracle's logit magnitude).
const (
	fp32Tol    = 1e-4
	int8RelTol = 0.06
)

func buildModels() ([]*pinnedModel, []servingKey, error) {
	var models []*pinnedModel
	var keys []servingKey
	for _, ch := range []int{5, 7} {
		m, err := resnet.New(frontConfig(ch), tensor.NewRNG(uint64(1000+ch)))
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		if _, err := onnxsize.Export(m, &buf); err != nil {
			return nil, nil, fmt.Errorf("exporting front%d: %w", ch, err)
		}
		pm := &pinnedModel{name: fmt.Sprintf("front%d", ch), channels: ch, model: m, container: buf.Bytes()}
		models = append(models, pm)
		keys = append(keys,
			servingKey{key: pm.name, model: pm},
			servingKey{key: infer.ModelKey(pm.name, infer.PrecisionInt8), model: pm, int8: true})
	}
	return models, keys, nil
}

// writeContainers writes every model's .dnnx container into a fresh dir.
func writeContainers(dir string, models []*pinnedModel) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, m := range models {
		if err := os.WriteFile(filepath.Join(dir, m.name+".dnnx"), m.container, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// oracle runs the training stack's eval-mode forward: the reference every
// served logit is checked against, independent of the compiled serving path.
func (m *pinnedModel) oracle(x *tensor.Tensor) []float32 {
	return append([]float32(nil), m.model.Forward(x, false).Data()...)
}

// logitCheck compares served logits with the fp32 oracle. A fp32 key must
// agree at the parity tolerance; an int8 key within int8RelTol of the
// oracle's logit magnitude. It returns the worst error as a share of that
// magnitude, and whether the bound held.
func logitCheck(got, want []float32, int8 bool) (relErr float64, ok bool) {
	if len(got) != len(want) {
		return math.Inf(1), false
	}
	worst, mag := 0.0, 0.0
	ok = true
	for i, w := range want {
		d := math.Abs(float64(got[i] - w))
		if math.IsNaN(d) {
			return math.Inf(1), false
		}
		worst = math.Max(worst, d)
		mag = math.Max(mag, math.Abs(float64(w)))
		if !int8 && d > fp32Tol*(1+math.Abs(float64(w))) {
			ok = false
		}
	}
	if mag == 0 {
		mag = 1
	}
	relErr = worst / mag
	if int8 && relErr > int8RelTol {
		ok = false
	}
	return relErr, ok
}

func argmax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
