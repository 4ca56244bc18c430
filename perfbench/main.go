// Command perfbench is the repository's end-to-end benchmark. It brings
// the system up in one process through its public constructors and
// drives one named workload, open loop over HTTP for the serving
// workloads and closed loop through core.Train for training, then
// prints every metric by name and unit together with the machine
// fingerprint, the digests of the worlds it built and its output checks.
// The line before last is that report, with the ungated wall-clock
// figures (latencies, max_rps, samples per second); the last line is the
// result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// holding the gated end-to-end metrics, or with -trace 1 the per-layer
// ones taken from probes into each layer's public functions and
// counters. design.json records the workloads, their rates, the limits
// and which end-to-end figure each per-layer metric should move.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload serve-local --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare old.txt new.txt
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed design.json
var designJSON []byte

// design is design.json: the benchmark's workloads and metrics.
type design struct {
	Budget    map[string]any   `json:"budget"`
	Limits    map[string]any   `json:"limits"`
	Workloads []workloadDesign `json:"workloads"`
	EndToEnd  []e2eDesign      `json:"end_to_end"`
	Reported  []reportedDesign `json:"reported"`
	PerLayer  []layerDesign    `json:"per_layer"`
}

type workloadDesign struct {
	Name      string    `json:"name"`
	Why       string    `json:"why"`
	Kind      string    `json:"kind"` // serve | train
	Remote    bool      `json:"remote,omitempty"`
	LightRPS  float64   `json:"light_rps,omitempty"`
	HeavyRPS  float64   `json:"heavy_rps,omitempty"`
	LadderRPS []float64 `json:"ladder_rps,omitempty"`
	ReadConns int       `json:"read_conns,omitempty"`
	AppendRPS float64   `json:"append_rps,omitempty"`
	// Train: steps per second of --seconds, the forward-only slice and
	// the engine's shard count.
	StepsPerSecond int `json:"steps_per_second,omitempty"`
	EvalSlice      int `json:"eval_slice,omitempty"`
	Shards         int `json:"shards,omitempty"`
	// Percentiles reported as the light and heavy tails.
	LightTail float64 `json:"light_tail"`
	HeavyTail float64 `json:"heavy_tail"`
}

type e2eDesign struct {
	Name   string            `json:"name"`
	Unit   string            `json:"unit"`
	Better string            `json:"better"`
	Bound  float64           `json:"bound"`
	Means  map[string]string `json:"means"` // per workload
}

// reportedDesign is an end-to-end figure every run reports but no bound
// gates: wall-clock latencies and rates, which on a shared host move
// with the host's load more than any bound could allow.
type reportedDesign struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Workloads []string `json:"workloads"`
	Means     string   `json:"means"`
}

type layerDesign struct {
	Name      string   `json:"name"`
	Unit      string   `json:"unit"`
	Better    string   `json:"better"`
	Layer     string   `json:"layer"`
	Workloads []string `json:"workloads"` // where the layer runs; 0 elsewhere
	How       string   `json:"how"`
	Moves     []move   `json:"moves"`
}

type move struct {
	Metric    string   `json:"metric"`
	Workloads []string `json:"workloads"`
}

func loadDesign() (*design, error) {
	var d design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		return nil, fmt.Errorf("design.json: %w", err)
	}
	return &d, nil
}

func (d *design) workload(name string) (workloadDesign, bool) {
	for _, w := range d.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDesign{}, false
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome collects what a workload run measured.
type outcome struct {
	e2e, layer        map[string]float64
	reported          map[string]float64 // ungated end-to-end figures
	detail            map[string]any
	checks            []check
	worlds            []worldInfo
	setupRuns         []float64 // CPU seconds
	setupWall         []float64 // wall seconds
	attempted, failed int64
	rss               *rssSampler // started once set-up is done
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, reported: map[string]float64{}, detail: map[string]any{}}
}

// measuring marks the end of set-up: memory is sampled from here on.
func (o *outcome) measuring() { o.rss = startRSS() }

// doneMeasuring records the memory the measured part of the run held.
func (o *outcome) doneMeasuring() { o.e2e["rss_mb"] = o.rss.medianMB() }

func (o *outcome) check(name string, ok bool, detail string) {
	o.checks = append(o.checks, check{name, ok, detail})
}

// setup records one set-up's CPU and wall time.
func (o *outcome) setup(cpu, wall time.Duration) {
	o.setupRuns = append(o.setupRuns, cpu.Seconds())
	o.setupWall = append(o.setupWall, wall.Seconds())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report precedes the result line: everything a reader needs to trust
// or compare the run.
type report struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Fingerprint fingerprint            `json:"fingerprint"`
	Worlds      []worldInfo            `json:"worlds"`
	WorldsAgree bool                   `json:"worlds_agree"`
	Checks      []check                `json:"checks"`
	SetupCPU    []float64              `json:"setup_cpu_s"`
	SetupWall   []float64              `json:"setup_wall_s"`
	Detail      map[string]any         `json:"detail"`
	Reported    map[string]metricValue `json:"reported"`
	Metrics     map[string]metricValue `json:"metrics"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name (see design.json)")
	seed := flag.Uint64("seed", 1, "workload seed: drives the request, append and shuffle streams only")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench-work", "scratch directory for shard WALs")
	compare := flag.Bool("compare", false, "compare the reports in two files of run output: perfbench --compare OLD NEW")
	flag.Parse()

	d, err := loadDesign()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "--compare takes two files of run output")
			return 2
		}
		return compareFiles(d, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	wl, ok := d.workload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads: %s\n", workloadNames(d))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tmp, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)

	out := newOutcome()
	secs := float64(*seconds)
	switch wl.Kind {
	case "serve":
		err = runServe(wl, *seed, secs, *trace == 1, tmp, out)
	case "train":
		err = runTrain(wl, *seed, secs, *trace == 1, out)
	default:
		err = fmt.Errorf("workload %s has unknown kind %q", wl.Name, wl.Kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out.e2e["setup_s"] = median(out.setupRuns)
	out.reported["setup_wall_s"] = median(out.setupWall)

	metrics, err := d.pick(wl.Name, out, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	reported, err := d.pickReported(wl.Name, out, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	correct := true
	for _, c := range out.checks {
		correct = correct && c.OK
	}
	rep := report{
		Workload: wl.Name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Fingerprint: takeFingerprint(), Worlds: out.worlds, WorldsAgree: worldsAgree(out.worlds),
		Checks: out.checks, SetupCPU: out.setupRuns, SetupWall: out.setupWall, Detail: out.detail, Reported: reported, Metrics: metrics,
		Attempted: out.attempted, Failed: out.failed,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !correct {
		for _, c := range out.checks {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		return 1
	}
	return 0
}

// pick picks the metrics a run reports: every end-to-end metric, or
// with traced every per-layer one. A per-layer metric whose layer does
// not run in this workload reads 0; one that should have been measured
// and was not is an error, as is a missing end-to-end metric.
func (d *design) pick(workload string, out *outcome, traced bool) (map[string]metricValue, error) {
	m := map[string]metricValue{}
	if !traced {
		for _, e := range d.EndToEnd {
			v, ok := out.e2e[e.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s not measured", e.Name)
			}
			m[e.Name] = metricValue{v, e.Unit}
		}
		return m, nil
	}
	for _, l := range d.PerLayer {
		v, ok := out.layer[l.Name]
		if !ok && contains(l.Workloads, workload) {
			return nil, fmt.Errorf("per-layer metric %s not measured", l.Name)
		}
		m[l.Name] = metricValue{v, l.Unit}
	}
	return m, nil
}

// pickReported picks the reported figures of the workload; an untraced
// run must have measured all of them.
func (d *design) pickReported(workload string, out *outcome, traced bool) (map[string]metricValue, error) {
	m := map[string]metricValue{}
	for _, r := range d.Reported {
		if !contains(r.Workloads, workload) {
			continue
		}
		v, ok := out.reported[r.Name]
		if !ok {
			if traced {
				continue
			}
			return nil, fmt.Errorf("reported figure %s not measured", r.Name)
		}
		m[r.Name] = metricValue{v, r.Unit}
	}
	return m, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func workloadNames(d *design) string {
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// compareFiles compares the end-to-end metrics of the runs reported in
// two files, workload by workload, against the bounds in the design. It
// refuses — neither passing nor failing, exit code 3 — when the runs
// come from different machine fingerprints. Exit code 1 marks a metric
// worse than its bound.
func compareFiles(d *design, oldPath, newPath string, w *os.File) int {
	olds, err := readReports(oldPath)
	if err == nil && len(olds) == 0 {
		err = fmt.Errorf("%s holds no reports", oldPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	news, err := readReports(newPath)
	if err == nil && len(news) == 0 {
		err = fmt.Errorf("%s holds no reports", newPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	machine := olds[0].Fingerprint.machine()
	for _, r := range append(olds, news...) {
		if m := r.Fingerprint.machine(); m != machine {
			fmt.Fprintf(w, "refused: runs come from different machines:\n  %s\n  %s\n", machine, m)
			return 3
		}
	}
	code := 0
	byWorkload := func(rs []report) map[string][]report {
		g := map[string][]report{}
		for _, r := range rs {
			if r.Trace == 0 {
				g[r.Workload] = append(g[r.Workload], r)
			}
		}
		return g
	}
	og, ng := byWorkload(olds), byWorkload(news)
	var names []string
	for n := range og {
		if _, ok := ng[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-20s %-20s %12s %12s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, n := range names {
		for _, e := range d.EndToEnd {
			ov, nv := values(og[n], e.Name), values(ng[n], e.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			change := 0.0
			if om != 0 {
				change = (nm - om) / om
			}
			worse := change
			if e.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case worse > e.Bound:
				verdict = "worse than bound"
				code = 1
			case quartileSpread(ov) > e.Bound || quartileSpread(nv) > e.Bound:
				verdict = "unresolved: spread exceeds bound"
			}
			fmt.Fprintf(w, "%-20s %-20s %12.4g %12.4g %+7.1f%% %6.2f  %s\n", n, e.Name, om, nm, 100*change, e.Bound, verdict)
		}
		for _, r := range d.Reported {
			ov, nv := reportedValues(og[n], r.Name), reportedValues(ng[n], r.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := median(ov), median(nv)
			change := 0.0
			if om != 0 {
				change = (nm - om) / om
			}
			fmt.Fprintf(w, "%-20s %-20s %12.4g %12.4g %+7.1f%% %6s  reported, not gated\n", n, r.Name, om, nm, 100*change, "-")
		}
	}
	return code
}

func reportedValues(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Reported[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func values(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readReports parses the report lines perfbench printed into path.
func readReports(path string) ([]report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []report
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, `{"report":`) {
			continue
		}
		var r map[string]report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r["report"])
	}
	return out, nil
}
