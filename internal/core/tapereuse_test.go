package core_test

import (
	"bytes"
	"math"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
)

// freshTapeTrain replays core.Train's loop for cfg.MaxSteps steps of its
// first epoch — the same RNG splits and shuffle, Logits, focal loss,
// Backward, dense Adam and sparse table Adam — recording every step on a
// fresh tape, and returns the per-step losses.
func freshTapeTrain(m core.Model, train []core.Instance, cfg core.TrainConfig) []float64 {
	r := rng.New(cfg.Seed)
	sampleRNG := r.Split()
	_ = r.Split() // core.Train's probe stream
	data := append([]core.Instance(nil), train...)
	r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	dense := nn.NewAdam(cfg.LR)
	var losses []float64
	for step := 0; step < cfg.MaxSteps; step++ {
		batch := data[step*cfg.BatchSize : (step+1)*cfg.BatchSize]
		t := ad.NewTape()
		logits := m.Logits(t, batch, sampleRNG)
		targets := make([]float32, len(batch))
		for i, ex := range batch {
			targets[i] = ex.Label
		}
		loss := t.FocalBCEWithLogits(logits, targets, cfg.FocalGamma)
		t.Backward(loss)
		dense.Step(m.DenseParams()...)
		for _, tab := range m.Tables() {
			tab.StepAdam(cfg.LR, 0.9, 0.999, 1e-8)
		}
		losses = append(losses, float64(loss.Scalar()))
	}
	return losses
}

// checkpoint returns the bytes of every dense parameter and embedding row
// of m.
func checkpoint(t *testing.T, m core.Model) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := nn.SaveCheckpoint(&b, m.DenseParams(), m.Tables()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTapeReuseMatchesFreshTapes pins the resettable tape arena: core.Train
// records every step on one tape it resets, and must match bit for bit a
// replica of its loop that records every step on a fresh tape — each
// step's loss, then every dense parameter and embedding row. Memory the
// arena hands out dirty, or an op that keeps state across Reset, shows up
// here.
func TestTapeReuseMatchesFreshTapes(t *testing.T) {
	const steps = 12
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 21))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, 1, 0.25, 22)
	train := core.InstancesFromExamples(ds.Train, res.Mapping)
	g, v := res.Graph, logs.Vocab()

	zcfg := core.DefaultConfig()
	zcfg.EmbedDim, zcfg.OutDim, zcfg.FanOut = 16, 16, 4
	bcfg := baselines.DefaultConfig()
	bcfg.EmbedDim, bcfg.OutDim, bcfg.FanOut = 16, 16, 4
	for _, tc := range []struct {
		name     string
		newModel func() core.Model
	}{
		{"zoomer", func() core.Model { return core.NewZoomer(g, v, zcfg, 23) }},
		{"graphsage", func() core.Model { return baselines.NewGraphSAGE(g, v, bcfg, 24) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultTrainConfig()
			cfg.BatchSize, cfg.MaxSteps, cfg.Seed = 16, steps, 25
			if len(train) < steps*cfg.BatchSize {
				t.Fatalf("%d training instances for %d steps", len(train), steps)
			}
			var reused []float64
			cfg.OnStep = func(_ int, loss float64) { reused = append(reused, loss) }
			a, b := tc.newModel(), tc.newModel()
			core.Train(a, train, nil, cfg)
			fresh := freshTapeTrain(b, train, cfg)

			if len(reused) != len(fresh) {
				t.Fatalf("core.Train ran %d steps, replica %d", len(reused), len(fresh))
			}
			for i := range fresh {
				if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
					t.Fatalf("step %d: loss %v on a reset tape, %v on a fresh tape", i+1, reused[i], fresh[i])
				}
			}
			if !bytes.Equal(checkpoint(t, a), checkpoint(t, b)) {
				t.Fatal("trained parameters differ between reset and fresh tapes")
			}
		})
	}
}
