package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/loggen"
)

// Fig10Row is one (model, scale) training-time measurement.
type Fig10Row struct {
	Model   string
	Scale   string
	Seconds float64
	AUC     float64
}

// Fig10Result is training time to a target AUC versus graph scale.
type Fig10Result struct {
	TargetAUC float64
	Rows      []Fig10Row
}

// Time returns the duration for (model, scale), or 0.
func (r Fig10Result) Time(model, scale string) float64 {
	for _, row := range r.Rows {
		if row.Model == model && row.Scale == scale {
			return row.Seconds
		}
	}
	return 0
}

// String prints the matrix.
func (r Fig10Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model, row.Scale,
			fmt.Sprintf("%.2fs", row.Seconds), fmt.Sprintf("%.3f", row.AUC)}
	}
	return fmt.Sprintf("Fig 10: training time to AUC %.2f vs graph scale\n", r.TargetAUC) +
		table([]string{"model", "scale", "time", "final AUC"}, rows)
}

// Fig10 reproduces the scalability experiment: train Zoomer and GCE-GNN
// to a target AUC (0.6 in the paper) on the three graph scales with
// sampling number 5 and 2-layer aggregation, recording wall-clock time.
func Fig10(o Options) Fig10Result {
	target := 0.6
	scales := []loggen.Scale{loggen.ScaleSmall, loggen.ScaleMedium, loggen.ScaleLarge}
	if o.Quick {
		target = 0.52
		scales = []loggen.Scale{loggen.ScaleTiny}
	}
	out := Fig10Result{TargetAUC: target}
	for si, sc := range scales {
		w := buildWorld(loggen.TaobaoConfig(sc, o.Seed+uint64(si)), 1, o.Seed+uint64(si))
		v := w.logs.Vocab()
		zcfg := o.modelConfig()
		zcfg.FanOut = 5
		zcfg.Hops = 2
		bcfg := o.baselineConfig()
		bcfg.FanOut = 5
		bcfg.Hops = 2
		if o.Quick {
			zcfg.Hops, bcfg.Hops = 1, 1
		}
		models := []core.Model{
			core.NewZoomer(w.view, v, zcfg, o.Seed+1),
			baselines.NewGCEGNN(w.view, v, bcfg, o.Seed+2),
		}
		for _, m := range models {
			tc := o.trainConfig()
			tc.TargetAUC = target
			tc.EvalEvery = 25
			tc.Epochs = 20 // bounded by MaxSteps / target
			res := core.Train(m, w.train, w.test, tc)
			out.Rows = append(out.Rows, Fig10Row{
				Model: m.Name(), Scale: sc.String(),
				Seconds: res.Duration.Seconds(), AUC: res.TestAUC,
			})
			o.logf("fig10 %s/%s %.2fs (AUC %.3f)", m.Name(), sc, res.Duration.Seconds(), res.TestAUC)
		}
		w.Close()
	}
	return out
}

// Fig11Row is one (model, K) AUC point.
type Fig11Row struct {
	Model string
	K     int
	AUC   float64
}

// Fig11Result sweeps the sampling number.
type Fig11Result struct {
	Ks   []int
	Rows []Fig11Row
}

// AUC returns the value for (model, k).
func (r Fig11Result) AUC(model string, k int) float64 {
	for _, row := range r.Rows {
		if row.Model == model && row.K == k {
			return row.AUC
		}
	}
	return 0
}

// Models lists the distinct model names in insertion order.
func (r Fig11Result) Models() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Model] {
			seen[row.Model] = true
			out = append(out, row.Model)
		}
	}
	return out
}

// String prints the sweep.
func (r Fig11Result) String() string {
	header := []string{"model"}
	for _, k := range r.Ks {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	var rows [][]string
	for _, m := range r.Models() {
		cells := []string{m}
		for _, k := range r.Ks {
			cells = append(cells, fmt.Sprintf("%.3f", r.AUC(m, k)))
		}
		rows = append(rows, cells)
	}
	return "Fig 11: AUC vs sampling number K\n" + table(header, rows)
}

// Fig11 reproduces the sampling-number sweep: Zoomer and the four
// sampler baselines trained at each per-hop budget K.
func Fig11(o Options) Fig11Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	defer w.Close()
	v := w.logs.Vocab()
	g := w.view
	ks := []int{5, 10, 15, 20, 25, 30}
	if o.Quick {
		ks = []int{2, 4}
	}
	out := Fig11Result{Ks: ks}
	for _, k := range ks {
		zcfg := o.modelConfig()
		zcfg.FanOut = k
		bcfg := o.baselineConfig()
		bcfg.FanOut = k
		models := []core.Model{
			core.NewZoomer(g, v, zcfg, o.Seed+1),
			baselines.NewGraphSAGE(g, v, bcfg, o.Seed+2),
			baselines.NewPixie(g, v, bcfg, o.Seed+3),
			baselines.NewPinnerSage(g, v, bcfg, o.Seed+4),
			baselines.NewPinSage(g, v, bcfg, o.Seed+5),
		}
		for _, m := range models {
			tc := o.trainConfig()
			if !o.Quick {
				// Large-K subgraphs are quadratically more expensive; a
				// reduced step budget keeps the sweep single-machine while
				// every (model, K) cell gets the same budget.
				tc.MaxSteps, tc.BatchSize = 80, 8
			}
			res := core.Train(m, w.train, w.test, tc)
			out.Rows = append(out.Rows, Fig11Row{Model: m.Name(), K: k, AUC: res.TestAUC})
			o.logf("fig11 %s K=%d AUC %.3f", m.Name(), k, res.TestAUC)
		}
	}
	return out
}

// Fig12Row is one model's efficiency-vs-effectiveness point.
type Fig12Row struct {
	Model        string
	RelativeTime float64 // CPU time vs Zoomer's (= 1.0), median over rounds
	AUC          float64
	Seconds      float64 // CPU seconds of the cheapest training run
}

// Fig12Result is the efficiency/effectiveness comparison.
type Fig12Result struct{ Rows []Fig12Row }

// String prints the comparison.
func (r Fig12Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model,
			fmt.Sprintf("%.1fx", row.RelativeTime),
			fmt.Sprintf("%.3f", row.AUC),
			fmt.Sprintf("%.2fs", row.Seconds)}
	}
	return "Fig 12: efficiency vs effectiveness (relative training time)\n" +
		table([]string{"model", "rel time", "AUC", "cpu time"}, rows)
}

// fig12Rounds is how many rounds Fig12 runs; every model trains once per
// round. Quick runs last tens of milliseconds, short enough for one slow
// spell of the host to cover a whole round, so they get more rounds.
func fig12Rounds(o Options) int {
	if o.Quick {
		return 7
	}
	return 3
}

// cpuTime is the CPU time the process has used, user and system, across
// all its threads. Time the host steals from the machine or gives to
// other processes is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Fig12 reproduces the efficiency-effectiveness comparison: the sampler
// baselines run with sampling number 30, while Zoomer further downsizes
// its ROI to one tenth (sampling 3), as §VII-E describes. Everyone gets
// the same number of optimization steps; Zoomer's smaller subgraphs make
// each step cheaper, and the focal-biased ROI keeps (or improves) AUC.
func Fig12(o Options) Fig12Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	defer w.Close()
	v := w.logs.Vocab()
	g := w.view

	full, tenth := 30, 3
	if o.Quick {
		full, tenth = 8, 2
	}
	zcfg := o.modelConfig()
	zcfg.FanOut = tenth // ROI downscaled to ~1/10 of the baselines
	bcfg := o.baselineConfig()
	bcfg.FanOut = full

	// Zoomer comes first: relative times are against models[0].
	models := []func() core.Model{
		func() core.Model { return core.NewZoomer(g, v, zcfg, o.Seed+1) },
		func() core.Model { return baselines.NewPixie(g, v, bcfg, o.Seed+2) },
		func() core.Model { return baselines.NewPinnerSage(g, v, bcfg, o.Seed+3) },
		func() core.Model { return baselines.NewGraphSAGE(g, v, bcfg, o.Seed+4) },
		func() core.Model { return baselines.NewPinSage(g, v, bcfg, o.Seed+5) },
	}
	tc := o.trainConfig()
	if !o.Quick {
		// Same step budget for everyone; the 30-sample baselines pay
		// ~100x more per step than Zoomer's tenth-scale ROI.
		tc.MaxSteps, tc.BatchSize = 60, 8
	}
	// A single wall-clock run is at the mercy of the scheduler and the
	// host. So a run is timed by the CPU time the process spends from the
	// start of core.Train to the end of its last step (the final test
	// evaluation excluded), and the models train in interleaved rounds,
	// each run from a fresh model with the same seed and a collected
	// heap. A model's time is its cheapest run; its relative time is the
	// median over rounds of its time over Zoomer's in the same round, so
	// a slow spell of the host that covers a round moves both sides of
	// that round's ratio.
	rounds := fig12Rounds(o)
	out := Fig12Result{Rows: make([]Fig12Row, len(models))}
	ratios := make([][]float64, len(models))
	for round := 0; round < rounds; round++ {
		var zoomerCPU float64
		for i, newModel := range models {
			m := newModel()
			runtime.GC()
			var lastStep time.Duration
			tc.OnStep = func(int, float64) { lastStep = cpuTime() }
			start := cpuTime()
			res := core.Train(m, w.train, w.test, tc)
			cpu := (lastStep - start).Seconds()
			if i == 0 {
				zoomerCPU = cpu
			}
			ratios[i] = append(ratios[i], cpu/zoomerCPU)
			row := &out.Rows[i]
			if round == 0 || cpu < row.Seconds {
				*row = Fig12Row{Model: m.Name(), AUC: res.TestAUC, Seconds: cpu}
			}
			o.logf("fig12 round %d %s %.3fs AUC %.3f", round, m.Name(), cpu, res.TestAUC)
		}
	}
	for i := range out.Rows {
		sort.Float64s(ratios[i])
		out.Rows[i].RelativeTime = ratios[i][rounds/2]
	}
	return out
}
