package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/eval"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// trainSetupRepeats is how many times a train run sets up, reporting the
// median: set-up is cheap here, so repeats make setup_s steady.
const trainSetupRepeats = 9

// trainWorld is the train workload's set-up: the world, its examples, a
// local sharded engine and a fresh default-config Zoomer reading the
// graph through it.
type trainWorld struct {
	w           *world
	eng         *engine.Engine
	view        core.EngineView
	train, test []core.Instance
	model       *core.Zoomer
}

func newTrainWorld(shards int) *trainWorld {
	w := buildWorld()
	ds := loggen.BuildExamples(w.logs, 1, 0.2, worldSeed+1)
	tw := &trainWorld{
		w:     w,
		train: core.InstancesFromExamples(ds.Train, w.res.Mapping),
		test:  core.InstancesFromExamples(ds.Test, w.res.Mapping),
		eng:   engine.New(w.res.Graph, engine.Config{Shards: shards, Replicas: 2, Strategy: partition.Hash, Locality: true}),
	}
	tw.view = core.EngineView{Engine: tw.eng, M: w.res.Mapping}
	tw.model = tw.newModel(tw.view)
	return tw
}

// newModel builds a fresh model over view with the run's fixed seed, so
// two models built from one trainWorld start bit-identical.
func (tw *trainWorld) newModel(view core.GraphView) *core.Zoomer {
	return core.NewZoomer(view, tw.w.logs.Vocab(), core.DefaultConfig(), worldSeed+2)
}

// trainConfig is the default training loop on the workload's shuffle
// stream.
func trainConfig(seed uint64, steps int) core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Seed = seed
	tc.MaxSteps = steps
	return tc
}

// stepTrace is what core.Train reports through OnStep: each step's loss
// and the time it ended.
type stepTrace struct {
	losses []float64
	ends   []time.Time
	cpu    time.Duration
}

// stepMs is the duration of every step but the first (whose start
// core.Train does not report), in ms.
func (t *stepTrace) stepMs() []float64 {
	out := make([]float64, 0, len(t.ends))
	for i := 1; i < len(t.ends); i++ {
		out = append(out, ms(t.ends[i].Sub(t.ends[i-1])))
	}
	return out
}

// runCoreTrain trains tw.model with core.Train for steps and returns its
// trace and the allocation and GC-pause deltas over the run.
func (tw *trainWorld) runCoreTrain(seed uint64, steps int) (tr stepTrace, mallocs, pauseNs uint64) {
	tc := trainConfig(seed, steps)
	tc.OnStep = func(_ int, loss float64) {
		tr.ends = append(tr.ends, time.Now())
		tr.losses = append(tr.losses, loss)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	core.Train(tw.model, tw.train, nil, tc)
	tr.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	return tr, m1.Mallocs - m0.Mallocs, m1.PauseTotalNs - m0.PauseTotalNs
}

// timedView wraps the model's graph view and times the reads made
// through it. core.GraphView is never type-asserted, so the wrapper
// leaves the read path as it was. Training runs on one goroutine, so
// the counters need no synchronization.
type timedView struct {
	core.GraphView
	readNs, featNs int64
	expansions     int64
}

func (v *timedView) Neighbors(id graph.NodeID) []graph.Edge {
	t := time.Now()
	e := v.GraphView.Neighbors(id)
	v.readNs += int64(time.Since(t))
	v.expansions++
	return e
}

func (v *timedView) Content(id graph.NodeID) tensor.Vec {
	t := time.Now()
	c := v.GraphView.Content(id)
	v.readNs += int64(time.Since(t))
	return c
}

func (v *timedView) Features(id graph.NodeID) []int32 {
	t := time.Now()
	f := v.GraphView.Features(id)
	v.featNs += int64(time.Since(t))
	return f
}

// layerTimes are the traced replica's per-step timings.
type layerTimes struct {
	forward, reads, feats, backward, optim, expansions, step []float64
	losses                                                   []float64
}

// tracedTrain replays core.Train's loop for steps from public calls —
// the same RNG splits and shuffle, Zoomer.Logits, FocalBCEWithLogits,
// Backward, dense Adam and sparse table Adam — on a fresh model reading
// through a timedView, and times each stage of every step.
func (tw *trainWorld) tracedTrain(seed uint64, steps int) layerTimes {
	tc := trainConfig(seed, steps)
	view := &timedView{GraphView: tw.view}
	m := tw.newModel(view)
	r := rng.New(tc.Seed)
	sampleRNG := r.Split()
	_ = r.Split() // core.Train's probe stream: split to keep the shuffle stream aligned
	data := append([]core.Instance(nil), tw.train...)
	r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	dense := nn.NewAdam(tc.LR)

	var lt layerTimes
	for step := 0; step < steps; step++ {
		lo := step * tc.BatchSize
		hi := lo + tc.BatchSize
		if hi > len(data) {
			break // one epoch is far more than a run's steps
		}
		batch := data[lo:hi]
		reads0, feats0, exp0 := view.readNs, view.featNs, view.expansions

		t0 := time.Now()
		tape := ad.NewTape()
		logits := m.Logits(tape, batch, sampleRNG)
		targets := make([]float32, len(batch))
		for i, ex := range batch {
			targets[i] = ex.Label
		}
		loss := tape.FocalBCEWithLogits(logits, targets, tc.FocalGamma)
		t1 := time.Now()
		tape.Backward(loss)
		t2 := time.Now()
		dense.Step(m.DenseParams()...)
		for _, tab := range m.Tables() {
			tab.StepAdam(tc.LR, 0.9, 0.999, 1e-8)
		}
		t3 := time.Now()

		lt.losses = append(lt.losses, float64(loss.Scalar()))
		lt.forward = append(lt.forward, ms(t1.Sub(t0)))
		lt.backward = append(lt.backward, ms(t2.Sub(t1)))
		lt.optim = append(lt.optim, ms(t3.Sub(t2)))
		lt.step = append(lt.step, ms(t3.Sub(t0)))
		lt.reads = append(lt.reads, float64(view.readNs-reads0)/1e6)
		lt.feats = append(lt.feats, float64(view.featNs-feats0)/1e6)
		lt.expansions = append(lt.expansions, float64(view.expansions-exp0))
	}
	return lt
}

// score runs the forward pass alone over slice in training batches,
// timing each batch, and returns the slice's AUC and the CPU time spent.
func (tw *trainWorld) score(slice []core.Instance, batch int) (auc float64, batchMs []float64, cpu time.Duration) {
	r := rng.New(worldSeed)
	scores := make([]float64, 0, len(slice))
	labels := make([]bool, 0, len(slice))
	c0 := cpuTime()
	for lo := 0; lo < len(slice); lo += batch {
		hi := min(lo+batch, len(slice))
		t := time.Now()
		logits := tw.model.Logits(ad.NewTape(), slice[lo:hi], r)
		batchMs = append(batchMs, ms(time.Since(t)))
		for i, ex := range slice[lo:hi] {
			scores = append(scores, float64(logits.Val.Data[i]))
			labels = append(labels, ex.Label > 0.5)
		}
	}
	return eval.AUC(scores, labels), batchMs, cpuTime() - c0
}

func (tw *trainWorld) close() { tw.eng.Close() }

// runTrain runs the train workload: set-up, then either a fixed number
// of core.Train steps bracketed by forward-only passes over the two
// halves of a fixed held-out slice, or, when traced, half the steps
// through core.Train and half through the traced replica, whose loss
// traces must agree bit for bit.
func runTrain(wl workloadDesign, seed uint64, seconds float64, traced bool, out *outcome) error {
	var tw *trainWorld
	for i := 0; i < trainSetupRepeats; i++ {
		if tw != nil {
			tw.close()
		}
		runtime.GC() // start each set-up from the same heap
		t, c := time.Now(), cpuTime()
		tw = newTrainWorld(wl.Shards)
		out.setup(cpuTime()-c, time.Since(t))
	}
	defer tw.close()
	info, err := describeWorld("train", tw.w.res.Graph)
	if err != nil {
		return err
	}
	out.worlds = []worldInfo{info}
	// One step more than the budget: core.Train reports step ends, so n
	// steps give n-1 step times.
	steps := int(seconds*float64(wl.StepsPerSecond)) + 1
	batch := core.DefaultTrainConfig().BatchSize
	out.measuring()
	defer out.doneMeasuring()

	if !traced {
		// The held-out slice is scored half before and half after
		// training, so the forward-only cost is sampled at both ends of
		// the run; the AUC is the trained model's, on the second half.
		half := wl.EvalSlice / 2
		_, before, cpuBefore := tw.score(tw.test[:half], batch)
		tr, _, _ := tw.runCoreTrain(seed, steps)
		out.attempted += int64(len(tr.losses))
		out.check("losses_finite", finite(tr.losses), fmt.Sprintf("%d steps", len(tr.losses)))
		if len(tr.ends) < 2 {
			return fmt.Errorf("core.Train ran %d steps", len(tr.ends))
		}
		R := out.reported
		if R["train_step_p50_ms"], R["train_step_p95_ms"], err = windowedMedianTail([][]float64{tr.stepMs()}, wl.HeavyTail); err != nil {
			return fmt.Errorf("training steps: %w", err)
		}
		elapsed := tr.ends[len(tr.ends)-1].Sub(tr.ends[0]).Seconds()
		R["train_samples_per_s"] = float64(batch*(len(tr.ends)-1)) / elapsed
		out.e2e["heavy_per_cpu_s"] = float64(batch*len(tr.losses)) / tr.cpu.Seconds()

		auc, after, cpuAfter := tw.score(tw.test[half:wl.EvalSlice], batch)
		out.e2e["light_per_cpu_s"] = float64(wl.EvalSlice) / (cpuBefore + cpuAfter).Seconds()
		batchMs := append(before, after...)
		out.attempted += int64(len(batchMs))
		if R["scoring_batch_p50_ms"], R["scoring_batch_p90_ms"], err = windowedMedianTail([][]float64{batchMs}, wl.LightTail); err != nil {
			return fmt.Errorf("scoring batches: %w", err)
		}
		out.e2e["quality"] = auc
		return nil
	}

	half := steps / 2
	tr, mallocs, pauseNs := tw.runCoreTrain(seed, half)
	lt := tw.tracedTrain(seed, half)
	out.attempted += int64(len(tr.losses) + len(lt.losses))
	out.check("losses_finite", finite(tr.losses) && finite(lt.losses), fmt.Sprintf("%d+%d steps", len(tr.losses), len(lt.losses)))
	same := len(tr.losses) == len(lt.losses)
	for i := 0; same && i < len(tr.losses); i++ {
		same = math.Float64bits(tr.losses[i]) == math.Float64bits(lt.losses[i])
	}
	out.check("traced_replica_matches_core_train", same, fmt.Sprintf("%d per-step losses compared bit for bit", len(tr.losses)))

	L := out.layer
	L["core.forward_ms"] = median(lt.forward)
	L["sampling.graph_read_ms"] = median(lt.reads)
	L["core.features_ms"] = median(lt.feats)
	L["ad.backward_ms"] = median(lt.backward)
	L["nn.optimizer_ms"] = median(lt.optim)
	L["sampling.roi_nodes_per_step"] = mean(lt.expansions)
	L["train.allocs_per_step"] = float64(mallocs) / float64(half)
	L["train.gc_pause_ms_per_step"] = float64(pauseNs) / 1e6 / float64(half)
	if base := median(tr.stepMs()); base > 0 {
		L["trace.overhead_frac"] = median(lt.step)/base - 1
	}
	return nil
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}
