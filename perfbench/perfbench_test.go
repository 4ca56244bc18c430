package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9.99 beyond) was reported")
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if _, err := percentile(seq(199), 0.95); err == nil {
		t.Fatal("p95 of 199 samples was reported")
	}
	if _, err := percentile(seq(200), 0.95); err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Fatal("median of 19 samples (9.5 beyond) was reported")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Fatalf("median of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := windowedPercentile([][]float64{seq(1000), seq(999)}, 0.99); err == nil {
		t.Fatal("windowed p99 with a 999-sample window was reported")
	}
	stalled := append(seq(990), 500, 500, 500, 500, 500, 500, 500, 500, 500, 500)
	if v, err := windowedPercentile([][]float64{seq(1000), stalled, seq(1000)}, 0.99); err != nil || v != 990 {
		t.Fatalf("windowed p99 with one stalled window = %v, %v; want 990", v, err)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := quartileSpread(seq(10)); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Fatalf("spread of 1..10 = %v, want 1", got)
	}
}

// TestOpenLoopChargesStall: one stalled operation on a single connection
// must add its stall to every operation queued behind it, because each
// is timed from its due time, not from when it was finally sent.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	shots := openLoop(time.Now(), time.Millisecond, 40, 1, func(_, i int) shot {
		if i == 5 {
			time.Sleep(stall)
		}
		return shot{status: 200}
	})
	// Operation 6 was due 1 ms after operation 5 started its stall.
	if got := shots[6].latency(); got < stall-10*time.Millisecond {
		t.Fatalf("operation behind the stall took %v from its due time, want about %v", got, stall)
	}
	if got := shots[6].late(); got < stall-10*time.Millisecond {
		t.Fatalf("operation behind the stall was sent %v late, want about %v", got, stall)
	}
	if got := shots[6].rtt(); got > 20*time.Millisecond {
		t.Fatalf("operation behind the stall has round trip %v; the wait belongs to lateness", got)
	}
	if got := shots[1].latency(); got > 20*time.Millisecond {
		t.Fatalf("operation before the stall took %v", got)
	}
}

// synthetic builds shots due every 200µs whose lateness is late(i).
func synthetic(n int, late func(i int) time.Duration) []shot {
	start := time.Unix(0, 0)
	out := make([]shot, n)
	for i := range out {
		due := start.Add(time.Duration(i) * 200 * time.Microsecond)
		sent := due.Add(late(i))
		out[i] = shot{due: due, sent: sent, done: sent.Add(300 * time.Microsecond), status: 200}
	}
	return out
}

func TestBacklogDetection(t *testing.T) {
	flat := synthetic(4000, func(i int) time.Duration { return time.Duration(i%7) * 150 * time.Microsecond })
	if backlogGrows(flat) {
		t.Fatal("flat lateness read as a growing backlog")
	}
	// Offered 10% above capacity: every send falls 20µs further behind.
	growing := synthetic(4000, func(i int) time.Duration { return time.Duration(i) * 20 * time.Microsecond })
	if !backlogGrows(growing) {
		t.Fatal("lateness growing to 80ms not read as a backlog")
	}
	// One stall early in the rung that the system then catches up on is
	// not a backlog.
	caught := synthetic(4000, func(i int) time.Duration {
		if i > 100 && i < 200 {
			return 30 * time.Millisecond
		}
		return 100 * time.Microsecond
	})
	if backlogGrows(caught) {
		t.Fatal("a recovered stall read as a growing backlog")
	}

	if r := judgeRung(5000, flat); !r.Pass {
		t.Fatalf("flat rung failed: %+v", r)
	}
	if r := judgeRung(5000, growing); r.Pass || !r.Backlog {
		t.Fatalf("growing rung passed: %+v", r)
	}
}

func TestClimb(t *testing.T) {
	ladder := []float64{1000, 2000, 3500, 5000, 7000}
	var offered []float64
	rungs, best := climb(ladder, func(rate float64) rung {
		offered = append(offered, rate)
		return rung{Rate: rate, Pass: rate != 3500 && rate <= 5000}
	})
	if best != 2000 || len(rungs) != 3 || len(offered) != 3 {
		t.Fatalf("climb found %v after offering %v; want 2000, stopping at the first failed rung", best, offered)
	}
	if _, best := climb(ladder, func(rate float64) rung { return rung{Rate: rate} }); best != 0 {
		t.Fatalf("climb with no sustained rate found %v, want 0", best)
	}
	if _, best := climb(ladder, func(rate float64) rung { return rung{Rate: rate, Pass: true} }); best != 7000 {
		t.Fatalf("climb with every rate sustained found %v, want the top rung", best)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestBenchmarkJSONSchema checks BENCHMARK.json against its contract and
// against design.json: every metric has a unit, every per-layer metric a
// layer, the workloads it runs in, and the end-to-end metrics it should
// move on which workloads.
func TestBenchmarkJSONSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(top) != len(want) {
		t.Fatalf("BENCHMARK.json keys %v, want exactly %v", keys(top), want)
	}
	for _, k := range want {
		if _, ok := top[k]; !ok {
			t.Fatalf("BENCHMARK.json lacks %q", k)
		}
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []map[string]string
		EndToEnd   []map[string]any `json:"end_to_end"`
		PerLayer   []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Fatalf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Fatalf("command string %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Fatalf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Fatalf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Fatalf("run_seconds %d", b.RunSeconds)
	}

	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]float64{
		"read_p99_ms": p99LimitMs, "read_fail_frac": maxFailFrac,
		"backlog_slack_ms": ms(backlogSlack), "min_samples_beyond_percentile": minBeyond,
	} {
		if d.Limits[k] != v {
			t.Fatalf("design.json limit %s = %v, the code uses %v", k, d.Limits[k], v)
		}
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Fatalf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(d.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in design.json", len(b.Workloads), len(d.Workloads))
	}
	wlNames := map[string]bool{}
	for i, w := range b.Workloads {
		if len(w) != 2 || w["name"] != d.Workloads[i].Name || w["why"] != d.Workloads[i].Why {
			t.Fatalf("workload %d: %v does not match design.json's %s", i, w, d.Workloads[i].Name)
		}
		if why := w["why"]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Fatalf("workload %s: why must be one line of at most 200 characters", w["name"])
		}
		name(w["name"])
		wlNames[w["name"]] = true
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(d.EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in design.json", len(b.EndToEnd), len(d.EndToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		de := d.EndToEnd[i]
		if len(m) != 4 || m["name"] != de.Name || m["unit"] != de.Unit || m["better"] != de.Better || m["bound"] != de.Bound {
			t.Fatalf("end-to-end metric %d: %v does not match design.json's %+v", i, m, de)
		}
		name(de.Name)
		if !unitRE.MatchString(de.Unit) || (de.Better != "lower" && de.Better != "higher") || de.Bound <= 0 || de.Bound > 0.25 {
			t.Fatalf("end-to-end metric %s: unit %q better %q bound %v", de.Name, de.Unit, de.Better, de.Bound)
		}
		for w := range wlNames {
			if de.Means[w] == "" {
				t.Fatalf("end-to-end metric %s says nothing of what it means on %s", de.Name, w)
			}
		}
		e2e[de.Name] = true
	}
	setup := d.EndToEnd[0]
	for _, de := range d.EndToEnd {
		if de.Name == "setup_s" {
			setup = de
		}
		if de.Bound > setup.Bound {
			t.Fatalf("%s has a larger bound than setup_s", de.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower better; got %+v", setup)
	}

	// Every figure a per-layer metric may move, with where it is measured.
	figures := map[string]map[string]bool{}
	for n := range e2e {
		figures[n] = wlNames
	}
	for _, r := range d.Reported {
		name(r.Name)
		if !unitRE.MatchString(r.Unit) || r.Means == "" || len(r.Workloads) == 0 {
			t.Fatalf("reported figure %s: unit %q, means %q, workloads %v", r.Name, r.Unit, r.Means, r.Workloads)
		}
		figures[r.Name] = map[string]bool{}
		for _, w := range r.Workloads {
			if !wlNames[w] {
				t.Fatalf("reported figure %s names unknown workload %q", r.Name, w)
			}
			figures[r.Name][w] = true
		}
	}

	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(d.PerLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in design.json", len(b.PerLayer), len(d.PerLayer))
	}
	for i, m := range b.PerLayer {
		dl := d.PerLayer[i]
		if len(m) != 3 || m["name"] != dl.Name || m["unit"] != dl.Unit || m["better"] != dl.Better {
			t.Fatalf("per-layer metric %d: %v does not match design.json's %s", i, m, dl.Name)
		}
		name(dl.Name)
		if !unitRE.MatchString(dl.Unit) || (dl.Better != "lower" && dl.Better != "higher") || dl.Layer == "" || !strings.HasPrefix(dl.Name, dl.Layer+".") || dl.How == "" {
			t.Fatalf("per-layer metric %s: unit %q, layer %q, how %q", dl.Name, dl.Unit, dl.Layer, dl.How)
		}
		if len(dl.Workloads) == 0 {
			t.Fatalf("per-layer metric %s names no workload it is measured on", dl.Name)
		}
		for _, w := range dl.Workloads {
			if !wlNames[w] {
				t.Fatalf("per-layer metric %s names unknown workload %q", dl.Name, w)
			}
		}
		if len(dl.Moves) == 0 && dl.Name != "trace.overhead_frac" {
			t.Fatalf("per-layer metric %s names no end-to-end metric it should move", dl.Name)
		}
		for _, mv := range dl.Moves {
			ws, ok := figures[mv.Metric]
			if !ok || len(mv.Workloads) == 0 {
				t.Fatalf("per-layer metric %s moves %q, which is no end-to-end or reported figure, on %v", dl.Name, mv.Metric, mv.Workloads)
			}
			for _, w := range mv.Workloads {
				if !ws[w] {
					t.Fatalf("per-layer metric %s moves %s on %q, where it is not measured", dl.Name, mv.Metric, w)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
