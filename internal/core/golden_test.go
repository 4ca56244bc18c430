//go:build amd64 && !amd64.v3

package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
)

// goldenTraces are the sha256 digests of each model's training trace on
// the tiny world (see traceDigest). They were recorded before the
// training step's math moved onto the shape-aware GemmAcc, the in-place
// feature matrix and the fused edge-attention score, which must leave
// every bit unchanged. A digest that moves means a kernel, an op or the
// order of a gradient accumulation changed what training computes; it
// may be re-recorded only by a change that means to change the math, and
// says so. The digests are amd64's: elsewhere the Go compiler may fuse a
// multiply and an add into one rounding, which the spec allows, and
// GOAMD64=v3 lets it do so on amd64 too; the build constraint above keeps
// the test to the builds the digests were recorded on.
var goldenTraces = map[string]string{
	"zoomer":     "2cd4e6b0e3a7749466abc655f91c945cafbe65aa203243fb26d3b91ad74a2728",
	"graphsage":  "bd52aaa331965683e7629cb653561bb17080424272bc141e0ec612b0d1351632",
	"pinsage":    "9f764499bea99326a9d41b11f33651cc59f0d390c794e61f11ada470b6d3fe37",
	"pinnersage": "288a46b7680fc8a812fa0b9b49548249c786248b9949b297cd53ea5c2048bc6b",
	"pixie":      "769ec715fee3fc50cef603e30e8430e233304760cc29755a57113b897bb8f683",
	"han":        "6a7062b34026da16b0dc53d4cf3d24abd2498403d51328827b15af481b483cf0",
	"gce-gnn":    "1f68c9e32c0850323901f1febe57266a80e89d00a1fa6432581065eb1c1ebcdf",
	"fgnn":       "7df3241d67fe57abc8e60bcb4411419a6ceb0edc267ece6150a0be70c337b19c",
	"stamp":      "5185daad0ad0429c1413efdccd8a444f6a671d1f5bc252658eb29ab7c83f1109",
	"mccf":       "8fdcacef3aaf65694bf7537f41bb317bba7b863c500b2e05f985b3348793ad24",
}

// traceDigest trains m with core.Train for cfg.MaxSteps steps and returns
// the hex sha256 of every step's loss bits (float64, little endian)
// followed by the bytes of nn.SaveCheckpoint over the trained model.
func traceDigest(t *testing.T, m core.Model, train []core.Instance, cfg core.TrainConfig) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	steps := 0
	cfg.OnStep = func(_ int, loss float64) {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(loss))
		h.Write(word[:])
		steps++
	}
	core.Train(m, train, nil, cfg)
	if steps != cfg.MaxSteps {
		t.Fatalf("trained %d steps, want %d", steps, cfg.MaxSteps)
	}
	h.Write(checkpoint(t, m))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTrainingTraces pins what training computes, bit for bit, for
// every model of the zoo: Zoomer and the nine baselines, all of which
// build their node inputs through core.FeatureEmbedder.FeatureMatrix and
// run their dense math through the tape's GemmAcc. Each model trains a
// few default-config steps on the tiny world, and its loss trace and
// checkpoint must hash to the recorded digest under either kernel
// dispatch (the purego build runs the same test).
func TestGoldenTrainingTraces(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 41))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, 1, 0.25, 42)
	train := core.InstancesFromExamples(ds.Train, res.Mapping)
	g, v := res.Graph, logs.Vocab()
	zcfg, bcfg := core.DefaultConfig(), baselines.DefaultConfig()

	models := []core.Model{
		core.NewZoomer(g, v, zcfg, 43),
		baselines.NewGraphSAGE(g, v, bcfg, 44),
		baselines.NewPinSage(g, v, bcfg, 45),
		baselines.NewPinnerSage(g, v, bcfg, 46),
		baselines.NewPixie(g, v, bcfg, 47),
		baselines.NewHAN(g, v, bcfg, 48),
		baselines.NewGCEGNN(g, v, bcfg, 49),
		baselines.NewFGNN(g, v, bcfg, 50),
		baselines.NewSTAMP(g, v, bcfg, 51),
		baselines.NewMCCF(g, v, bcfg, 52),
	}
	if len(models) != len(goldenTraces) {
		t.Fatalf("%d models for %d golden digests", len(models), len(goldenTraces))
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			want, ok := goldenTraces[m.Name()]
			if !ok {
				t.Fatalf("no golden digest for model %q", m.Name())
			}
			cfg := core.DefaultTrainConfig()
			cfg.BatchSize, cfg.MaxSteps, cfg.Seed = 16, 8, 53
			if got := traceDigest(t, m, train, cfg); got != want {
				t.Errorf("training trace digest %s, want %s", got, want)
			}
		})
	}
}
