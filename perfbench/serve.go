package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
)

// Serve-workload constants that are not per-workload design choices.
const (
	warmup = time.Second // light-rate traffic before measuring: fills the neighbor cache
	// Reads ask the gateway for its longest deadline (its MaxDeadline),
	// not its 200 ms default: on a shared host about one read in tens of
	// thousands stalls past 200 ms, and answered 504 such a read would
	// make the failure count differ between runs of the same code. The
	// stall shows instead as latency, and reads slower than the default
	// deadline are counted (reads_over_200ms).
	readDeadline    = 2 * time.Second // also the probes' deadline
	defaultDeadline = 200 * time.Millisecond
	recallSeed      = 20240601 // the fixed recall probe set's stream seed
	recallProbes    = 500
	streamReads     = 100000 // (user, query) pairs replayed, wrapping; about one pass of the world's interactions
	roundShare      = 0.3    // light+heavy window rounds per second of --seconds
	rungShare       = 0.05   // of --seconds, for each ladder rung
	serveProbes     = 2000   // cache/embed/ANN probe calls in a traced phase
	engineProbes    = 1200   // engine batch and single-sample probe calls in a traced phase
	probeBatch      = 64     // ids per batch probe, as the cache refresher batches them
	evalSliceServe  = 256    // test instances timed to estimate the discarded final evaluation
)

// retrieveReply is the gateway's JSON answer, as a client decodes it.
type retrieveReply struct {
	Degraded  bool  `json:"degraded"`
	LatencyUs int64 `json:"latency_us"`
	Items     []struct {
		ID    int64   `json:"id"`
		Score float32 `json:"score"`
	} `json:"items"`
}

type appendReply struct {
	Appended  int   `json:"appended"`
	LatencyUs int64 `json:"latency_us"`
}

// conn is one HTTP/1.1 keep-alive connection to the gateway.
type conn struct {
	c     *http.Client
	buf   bytes.Buffer
	reply retrieveReply
}

func newConn() *conn {
	return &conn{c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   10 * time.Second,
	}}
}

// roundTrip sends req and reads the whole body into cn.buf.
func (cn *conn) roundTrip(req *http.Request) (status int, err error) {
	resp, err := cn.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	cn.buf.Reset()
	if _, err := cn.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// failure describes a failed round trip: the transport error, or the
// status line's reason as the gateway wrote it in the body.
func failure(err error, cn *conn) string {
	if err != nil {
		return err.Error()
	}
	return strings.TrimSpace(cn.buf.String())
}

// serveRun drives one serve workload against a brought-up stack.
type serveRun struct {
	st      *stack
	wl      workloadDesign
	readers []*conn
	writer  *conn

	readURLs []string
	readOff  int // stream position of the current phase's first read
	bodies   [][]byte
	nEdges   []int
	appOff   int

	reads, readFails     int64
	appends, appendFails int64
	invalid              int64
	firstInvalid         string
	short                int64            // valid answers with fewer than TopK items
	failures             map[string]int64 // failed operations by status and reason
	slow                 int64            // reads whose round trip took at least defaultDeadline
	ackedEdges           int64
}

func newServeRun(st *stack, wl workloadDesign, seed uint64, seconds float64) *serveRun {
	r := &serveRun{st: st, wl: wl, writer: newConn(), failures: map[string]int64{}}
	for i := 0; i < wl.ReadConns; i++ {
		r.readers = append(r.readers, newConn())
	}
	for _, p := range readPairs(st.w, seed, streamReads) {
		r.readURLs = append(r.readURLs, st.base+"/v1/retrieve?user="+strconv.Itoa(int(p[0]))+"&query="+strconv.Itoa(int(p[1]))+"&deadline_ms="+strconv.Itoa(int(readDeadline/time.Millisecond)))
	}
	if wl.AppendRPS > 0 {
		// Appends run through every phase: warm-ups, windows and ladder.
		n := int((3*warmup.Seconds() + 2*seconds) * wl.AppendRPS)
		for _, b := range appendBatches(st.w, seed^0x5eed5eed, n) {
			type edge struct {
				Src    uint32  `json:"src"`
				Dst    uint32  `json:"dst"`
				Type   uint8   `json:"type"`
				Weight float32 `json:"weight"`
			}
			body := struct {
				Edges []edge `json:"edges"`
			}{}
			for _, e := range b {
				body.Edges = append(body.Edges, edge{uint32(e.Src), uint32(e.Dst), uint8(e.Type), e.Weight})
			}
			js, err := json.Marshal(body)
			if err != nil {
				panic(err) // a fixed struct of numbers always marshals
			}
			r.bodies = append(r.bodies, js)
			r.nEdges = append(r.nEdges, len(b))
		}
	}
	return r
}

func (r *serveRun) close() {
	for _, cn := range append(r.readers, r.writer) {
		cn.c.CloseIdleConnections()
	}
}

// read sends the phase's i-th read on connection w and checks the answer:
// one to TopK item-typed ids in non-increasing score order.
func (r *serveRun) read(w, i int) shot {
	cn := r.readers[w]
	req, err := http.NewRequest(http.MethodGet, r.readURLs[(r.readOff+i)%len(r.readURLs)], nil)
	if err != nil {
		return shot{}
	}
	status, err := cn.roundTrip(req)
	s := shot{status: status}
	if err != nil || status != http.StatusOK {
		s.why = failure(err, cn)
		return s
	}
	rep := &cn.reply
	rep.Degraded, rep.LatencyUs, rep.Items = false, 0, rep.Items[:0]
	if err := json.Unmarshal(cn.buf.Bytes(), rep); err != nil {
		s.invalid = "undecodable answer: " + err.Error()
		return s
	}
	s.serverUs, s.degraded, s.items = rep.LatencyUs, rep.Degraded, len(rep.Items)
	// The index answers with the TopK best of the NProbe probed posting
	// lists, or with all of them when those lists hold fewer than TopK
	// items (ann's documented contract); such short answers are counted
	// in the report, not failed.
	if len(rep.Items) == 0 || len(rep.Items) > r.st.scfg.TopK {
		s.invalid = fmt.Sprintf("answer holds %d items, want 1 to %d", len(rep.Items), r.st.scfg.TopK)
		return s
	}
	m := r.st.w.res.Mapping
	for j, it := range rep.Items {
		if it.ID < 0 || it.ID >= int64(m.NumNodes()) || m.Type(graph.NodeID(it.ID)) != graph.Item {
			s.invalid = fmt.Sprintf("answer item %d has id %d, not an item", j, it.ID)
			return s
		}
		if math.IsNaN(float64(it.Score)) || j > 0 && it.Score > rep.Items[j-1].Score {
			s.invalid = fmt.Sprintf("answer scores not non-increasing at %d", j)
			return s
		}
	}
	return s
}

// appendOne posts the phase's i-th append batch and checks that every
// edge was acknowledged.
func (r *serveRun) appendOne(_, i int) shot {
	k := (r.appOff + i) % len(r.bodies)
	req, err := http.NewRequest(http.MethodPost, r.st.base+"/v1/append", bytes.NewReader(r.bodies[k]))
	if err != nil {
		return shot{}
	}
	req.Header.Set("Content-Type", "application/json")
	status, err := r.writer.roundTrip(req)
	s := shot{status: status}
	if err != nil || status != http.StatusOK {
		s.why = failure(err, r.writer)
		return s
	}
	var rep appendReply
	if err := json.Unmarshal(r.writer.buf.Bytes(), &rep); err != nil {
		s.invalid = "undecodable append answer: " + err.Error()
		return s
	}
	s.serverUs, s.edges = rep.LatencyUs, rep.Appended
	if rep.Appended != r.nEdges[k] {
		s.invalid = fmt.Sprintf("append acknowledged %d of %d edges", rep.Appended, r.nEdges[k])
	}
	return s
}

// phase offers reads at rate (and, when the workload writes, appends at
// its append rate on the other connection) for d, open loop, and
// accounts every operation.
func (r *serveRun) phase(rate float64, d time.Duration) (reads, appends []shot) {
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	if r.wl.AppendRPS > 0 {
		n := int(r.wl.AppendRPS * d.Seconds())
		wg.Add(1)
		go func() {
			defer wg.Done()
			appends = openLoop(start, interval(r.wl.AppendRPS), n, 1, r.appendOne)
		}()
	}
	n := int(rate * d.Seconds())
	reads = openLoop(start, interval(rate), n, len(r.readers), r.read)
	wg.Wait()
	r.readOff += n
	r.appOff += len(appends)
	r.reads += int64(len(reads))
	for _, s := range reads {
		if s.rtt() >= defaultDeadline {
			r.slow++
		}
	}
	r.readFails += r.account(reads)
	r.appends += int64(len(appends))
	r.appendFails += r.account(appends)
	for _, s := range appends {
		if !s.failed() {
			r.ackedEdges += int64(s.edges)
		}
	}
	return reads, appends
}

// account checks shots' outcomes and returns how many failed.
func (r *serveRun) account(shots []shot) (failed int64) {
	for _, s := range shots {
		if s.failed() {
			failed++
			r.failures[fmt.Sprintf("%d %s", s.status, s.why)]++
		}
		if s.items > 0 && s.items < r.st.scfg.TopK {
			r.short++
		}
		if s.invalid != "" {
			if r.invalid == 0 {
				r.firstInvalid = s.invalid
			}
			r.invalid++
		}
	}
	return failed
}

// counters is a snapshot of every public counter the serve path keeps.
type counters struct {
	hits, misses, refreshes, invalidations int64
	expired, dropped                       int64
	engReqs                                []int64 // per shard
	batchOps, sampleOps, appendOps, lag    int64   // summed over shard servers
	seq, deltaEdges, compactions           uint64  // summed over servers and shards
	fsyncs, fsyncNanos                     uint64
}

func (r *serveRun) snapshot() counters {
	st := r.st
	var c counters
	c.hits, c.misses, c.refreshes = st.cache.Stats()
	c.invalidations = st.cache.Invalidations()
	c.expired, c.dropped = st.srv.Expired(), st.srv.Dropped()
	c.engReqs = append(c.engReqs, st.eng.Stats().RequestsPerShard...)
	rows := st.eng.IngestStats()
	if len(st.shards) > 0 {
		rows = nil
		for _, s := range st.shards {
			c.batchOps += s.OpCount(rpc.OpBatch)
			c.sampleOps += s.OpCount(rpc.OpSample)
			c.appendOps += s.OpCount(rpc.OpAppend)
			c.lag += s.ReplicaLag()
			rows = append(rows, s.IngestStats()...)
		}
	}
	for _, row := range rows {
		c.seq += row.Seq
		c.deltaEdges += row.DeltaEdges
		c.compactions += row.Compactions
		c.fsyncs += row.Fsyncs
		c.fsyncNanos += row.FsyncNanos
	}
	return c
}

// serveProbeTimes are per-call timings of the serve path's layers, taken
// by calling their public functions alongside the load.
type serveProbeTimes struct {
	cacheGet, userQuery, annSearch []float64 // µs
	engBatch, engSample            []float64 // µs
	errors                         int64
	firstError                     string
}

// probe calls into the layers the serve workers use — the neighbor
// cache, the embedder, the ANN index, the engine's batch and single
// sample — on their own schedule over d, with ids from the workload's
// read stream.
func (r *serveRun) probe(start time.Time, d time.Duration, seed uint64) serveProbeTimes {
	st := r.st
	var pt serveProbeTimes
	pairs := readPairs(st.w, seed, serveProbes+engineProbes*probeBatch/2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr := rng.New(seed)
		esc := st.emb.NewScratch()
		ssc := st.index.NewSearchScratch()
		openLoop(start, d/serveProbes, serveProbes, 1, func(_, i int) shot {
			u, q := pairs[i][0], pairs[i][1]
			t0 := time.Now()
			eu := st.cache.GetBy(u, rr, t0.Add(readDeadline))
			t1 := time.Now()
			eq := st.cache.GetBy(q, rr, t1.Add(readDeadline))
			t2 := time.Now()
			vec := st.emb.UserQuery(u, q, eu.Neighbors(), eq.Neighbors(), esc)
			t3 := time.Now()
			eu.Release()
			eq.Release()
			t4 := time.Now()
			st.index.SearchInto(vec, st.scfg.TopK, st.scfg.NProbe, ssc)
			t5 := time.Now()
			pt.cacheGet = append(pt.cacheGet, us(t1.Sub(t0)), us(t2.Sub(t1)))
			pt.userQuery = append(pt.userQuery, us(t3.Sub(t2)))
			pt.annSearch = append(pt.annSearch, us(t5.Sub(t4)))
			return shot{status: http.StatusOK}
		})
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr := rng.New(seed + 1)
		bs := engine.NewBatchScratch()
		k := st.scfg.CacheK
		ids := make([]graph.NodeID, probeBatch)
		out := make([]graph.NodeID, probeBatch*k)
		ns := make([]int32, probeBatch)
		base := serveProbes
		openLoop(start, d/engineProbes, engineProbes, 1, func(_, i int) shot {
			for j := range ids {
				p := pairs[base+(i*probeBatch+j)/2]
				ids[j] = p[j%2]
			}
			t0 := time.Now()
			_, err1 := st.eng.SampleNeighborsBatchInto(ids, k, out, ns, rr, bs)
			t1 := time.Now()
			_, err2 := st.eng.TrySampleNeighborsIntoBy(ids[0], out[:k], rr, t1.Add(readDeadline))
			t2 := time.Now()
			if err := errors.Join(err1, err2); err != nil {
				pt.errors++
				if pt.firstError == "" {
					pt.firstError = err.Error()
				}
			}
			pt.engBatch = append(pt.engBatch, us(t1.Sub(t0)))
			pt.engSample = append(pt.engSample, us(t2.Sub(t1)))
			return shot{status: http.StatusOK}
		})
	}()
	wg.Wait()
	return pt
}

// recallAt10 is the recall of the served index at the served TopK and
// NProbe against Index.SearchExact, over a fixed probe set of requests
// whose neighbor sets are drawn through the engine.
func (r *serveRun) recallAt10() (float64, error) {
	st := r.st
	rr := rng.New(recallSeed)
	ssc := st.index.NewSearchScratch()
	k := st.scfg.CacheK
	nu, nq := make([]graph.NodeID, k), make([]graph.NodeID, k)
	var sum float64
	pairs := readPairs(st.w, recallSeed, recallProbes)
	for _, p := range pairs {
		a, err := st.eng.TrySampleNeighborsIntoBy(p[0], nu, rr, time.Time{})
		if err != nil {
			return 0, err
		}
		b, err := st.eng.TrySampleNeighborsIntoBy(p[1], nq, rr, time.Time{})
		if err != nil {
			return 0, err
		}
		vec := st.emb.UserQuery(p[0], p[1], nu[:a], nq[:b], nil)
		served := st.index.SearchInto(vec, st.scfg.TopK, st.scfg.NProbe, ssc)
		if len(served) > 10 {
			served = served[:10]
		}
		exact := st.index.SearchExact(vec, 10)
		hit := 0
		for _, e := range exact {
			for _, s := range served {
				if s.ID == e.ID {
					hit++
					break
				}
			}
		}
		sum += float64(hit) / float64(len(exact))
	}
	return sum / float64(len(pairs)), nil
}

// checkReplicas verifies that every acknowledged append is applied on
// both shard servers: per-shard sequence numbers agree across servers
// and each server's delta layer holds exactly the acknowledged edges.
func (r *serveRun) checkReplicas() (bool, string) {
	if len(r.st.shards) == 0 {
		return true, "no shard servers"
	}
	var want []engine.IngestStats
	for i, s := range r.st.shards {
		rows := s.IngestStats()
		var edges uint64
		for _, row := range rows {
			edges += row.DeltaEdges
		}
		if edges != uint64(r.ackedEdges) {
			return false, fmt.Sprintf("server %d holds %d delta edges, %d acknowledged", i, edges, r.ackedEdges)
		}
		if i == 0 {
			want = rows
			continue
		}
		if len(rows) != len(want) {
			return false, fmt.Sprintf("server %d owns %d shards, server 0 owns %d", i, len(rows), len(want))
		}
		for j := range rows {
			if rows[j].Shard != want[j].Shard || rows[j].Seq != want[j].Seq {
				return false, fmt.Sprintf("shard %d at seq %d on server %d, %d on server 0", rows[j].Shard, rows[j].Seq, i, want[j].Seq)
			}
		}
	}
	return true, fmt.Sprintf("%d appends, %d edges on both servers", r.appends, r.ackedEdges)
}

// runServe runs a serve workload: bring-up, warm-up, then either the
// measured phases (light rate, heavy rate, the ladder, recall) or, when
// traced, an unprobed and a probed phase at the heavy rate.
func runServe(wl workloadDesign, seed uint64, seconds float64, traced bool, workdir string, out *outcome) error {
	t0, cpu0 := time.Now(), cpuTime()
	st, err := bringUp(wl.Remote, workdir)
	if err != nil {
		return fmt.Errorf("bring-up: %w", err)
	}
	defer st.close()
	out.setup(cpuTime()-cpu0, time.Since(t0))

	out.worlds = st.worlds

	r := newServeRun(st, wl, seed, seconds)
	defer r.close()
	out.measuring()
	r.phase(wl.LightRPS, warmup)

	if !traced {
		// One-time lazy warm-up at the heavy rate, then alternating
		// one-second light and heavy windows across the run, so noise
		// from outside the process that lasts a few seconds reaches a
		// minority of each rate's windows.
		r.phase(wl.HeavyRPS, 2*warmup)
		var lightW, heavyW, appendW [][]float64
		var lightCPU, heavyCPU time.Duration
		var nl, nh int
		for i := 0; i < int(seconds*roundShare); i++ {
			c0 := cpuTime()
			l, la := r.phase(wl.LightRPS, time.Second)
			c1 := cpuTime()
			h, ha := r.phase(wl.HeavyRPS, time.Second)
			c2 := cpuTime()
			lightCPU += c1 - c0
			heavyCPU += c2 - c1
			nl += len(l)
			nh += len(h)
			lightW = append(lightW, latencies(l, shot.latency))
			heavyW = append(heavyW, latencies(h, shot.latency))
			appendW = append(appendW, latencies(append(la, ha...), shot.latency))
		}
		out.e2e["light_per_cpu_s"] = float64(nl) / lightCPU.Seconds()
		out.e2e["heavy_per_cpu_s"] = float64(nh) / heavyCPU.Seconds()
		R := out.reported
		if R["read_p50_ms_light"], R["read_p99_ms_light"], err = windowedMedianTail(lightW, wl.LightTail); err != nil {
			return fmt.Errorf("light reads: %w", err)
		}
		if R["read_p50_ms_heavy"], R["read_p99_ms_heavy"], err = windowedMedianTail(heavyW, wl.HeavyTail); err != nil {
			return fmt.Errorf("heavy reads: %w", err)
		}
		if wl.AppendRPS > 0 {
			// Appends are few per window: pool them.
			if R["append_p50_ms"], R["append_p99_ms"], err = windowedMedianTail([][]float64{concat(appendW)}, 0.99); err != nil {
				return fmt.Errorf("appends: %w", err)
			}
		}
		rungs, best := climb(wl.LadderRPS, func(rate float64) rung {
			reads, _ := r.phase(rate, dur(seconds*rungShare))
			return judgeRung(rate, reads)
		})
		out.detail["ladder"] = rungs
		R["max_rps"] = best
		out.doneMeasuring()
		rec, err := r.recallAt10()
		if err != nil {
			return fmt.Errorf("recall probe: %w", err)
		}
		out.e2e["quality"] = rec
	} else {
		r.phase(wl.HeavyRPS, 2*warmup)
		c0 := r.snapshot()
		plain, plainApp := r.phase(wl.HeavyRPS, dur(seconds/2))
		c1 := r.snapshot()
		start := time.Now().Add(5 * time.Millisecond)
		var pt serveProbeTimes
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt = r.probe(start, dur(seconds/2), seed^0x9e3779b9)
		}()
		probed, _ := r.phase(wl.HeavyRPS, dur(seconds/2))
		wg.Wait()
		out.doneMeasuring()
		out.attempted += serveProbes + 2*engineProbes
		out.failed += pt.errors
		if pt.errors > 0 {
			out.detail["probe_errors"] = map[string]any{"count": pt.errors, "first": pt.firstError}
		}
		if err := serveLayers(out, plain, plainApp, probed, c0, c1, pt); err != nil {
			return err
		}
		t := time.Now()
		core.EvalAUC(st.model, st.test[:evalSliceServe], 32, rng.New(worldSeed))
		out.layer["servestack.discarded_eval_s"] = time.Since(t).Seconds() / evalSliceServe * float64(len(st.test))
	}

	out.attempted += r.reads + r.appends
	out.failed += r.readFails + r.appendFails
	if len(r.failures) > 0 {
		out.detail["failures"] = r.failures
	}
	out.reported["read_fail_frac"] = float64(r.readFails) / float64(r.reads)
	out.reported["short_answer_frac"] = float64(r.short) / float64(r.reads)
	out.reported["reads_over_200ms"] = float64(r.slow)
	if r.appends > 0 {
		out.reported["append_fail_frac"] = float64(r.appendFails) / float64(r.appends)
	}
	out.check("answers_valid", r.invalid == 0, fmt.Sprintf("%d of %d answers failed their check; first: %s", r.invalid, r.reads+r.appends, r.firstInvalid))
	if wl.AppendRPS > 0 {
		ok, msg := r.checkReplicas()
		out.check("appends_on_both_replicas", ok, msg)
	}
	return nil
}

// serveLayers derives the serve workloads' per-layer metrics: timings
// and counters from the unprobed heavy phase, probe timings from the
// probed one.
func serveLayers(out *outcome, plain, plainApp, probed []shot, c0, c1 counters, pt serveProbeTimes) error {
	L := out.layer
	var err error
	set := func(name string, xs []float64, p float64) {
		if err != nil {
			return
		}
		var v float64
		v, err = percentile(xs, p)
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		L[name] = v
	}
	set("loadgen.late_p50_ms", latencies(plain, shot.late), 0.5)
	set("loadgen.late_p99_ms", latencies(plain, shot.late), 0.99)
	set("loadgen.rtt_p50_ms", latencies(plain, shot.rtt), 0.5)
	set("loadgen.rtt_p99_ms", latencies(plain, shot.rtt), 0.99)

	var httpUs, handlerUs []float64
	var degraded, shed, deadline float64
	for _, s := range plain {
		switch s.status {
		case http.StatusOK:
			httpUs = append(httpUs, us(s.rtt())-float64(s.serverUs))
			handlerUs = append(handlerUs, float64(s.serverUs))
			if s.degraded {
				degraded++
			}
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusGatewayTimeout:
			deadline++
		}
	}
	set("gateway.http_p50_us", httpUs, 0.5)
	set("gateway.http_p99_us", httpUs, 0.99)
	set("gateway.handler_p50_us", handlerUs, 0.5)
	set("gateway.handler_p99_us", handlerUs, 0.99)
	reads := float64(len(plain))
	L["gateway.degraded_frac"] = degraded / reads
	L["gateway.shed"] = shed
	L["gateway.deadline"] = deadline

	hits, misses := float64(c1.hits-c0.hits), float64(c1.misses-c0.misses)
	if hits+misses > 0 {
		L["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	L["serve.cache_refresh_per_read"] = float64(c1.refreshes-c0.refreshes) / reads
	L["serve.cache_misses"] = misses
	L["serve.cache_invalidations"] = float64(c1.invalidations - c0.invalidations)
	L["serve.expired"] = float64(c1.expired - c0.expired)
	L["serve.dropped"] = float64(c1.dropped - c0.dropped)
	set("serve.cache_get_p50_us", pt.cacheGet, 0.5)
	set("serve.cache_get_p99_us", pt.cacheGet, 0.99)
	set("serve.user_query_p50_us", pt.userQuery, 0.5)
	set("serve.user_query_p99_us", pt.userQuery, 0.99)
	set("ann.search_p50_us", pt.annSearch, 0.5)
	set("ann.search_p99_us", pt.annSearch, 0.99)

	set("engine.batch_p50_us", pt.engBatch, 0.5)
	set("engine.batch_p99_us", pt.engBatch, 0.99)
	set("engine.sample_p50_us", pt.engSample, 0.5)
	set("engine.sample_p99_us", pt.engSample, 0.99)
	var total, most float64
	for i := range c1.engReqs {
		d := float64(c1.engReqs[i] - c0.engReqs[i])
		total += d
		most = math.Max(most, d)
	}
	if total > 0 {
		L["engine.imbalance"] = most / (total / float64(len(c1.engReqs)))
	}
	L["engine.requests_per_read"] = total / reads

	L["rpc.batch_ops_per_read"] = float64(c1.batchOps-c0.batchOps) / reads
	L["rpc.sample_ops_per_read"] = float64(c1.sampleOps-c0.sampleOps) / reads
	L["rpc.replica_lag"] = float64(c1.lag)
	if len(plainApp) > 0 {
		L["rpc.append_ops_per_append"] = float64(c1.appendOps-c0.appendOps) / float64(len(plainApp))
		set("loadgen.append_p50_ms", latencies(plainApp, shot.latency), 0.5)
		set("loadgen.append_p99_ms", latencies(plainApp, shot.latency), 0.99)
		var srvUs []float64
		for _, s := range plainApp {
			srvUs = append(srvUs, float64(s.serverUs))
		}
		set("ingest.append_p50_us", srvUs, 0.5)
		set("ingest.append_p99_us", srvUs, 0.99)
		if f := c1.fsyncs - c0.fsyncs; f > 0 {
			L["ingest.fsync_mean_us"] = float64(c1.fsyncNanos-c0.fsyncNanos) / float64(f) / 1e3
			L["ingest.records_per_fsync"] = float64(c1.seq-c0.seq) / float64(f)
		}
		L["ingest.compactions"] = float64(c1.compactions - c0.compactions)
		L["ingest.delta_edges"] = float64(c1.deltaEdges - c0.deltaEdges)
	}

	pp, perr := percentile(latencies(probed, shot.latency), 0.5)
	bp, berr := percentile(latencies(plain, shot.latency), 0.5)
	if perr == nil && berr == nil && bp > 0 {
		L["trace.overhead_frac"] = pp/bp - 1
	}
	return err
}

// latencies maps shots through f, in milliseconds, in schedule order.
func latencies(shots []shot, f func(shot) time.Duration) []float64 {
	out := make([]float64, len(shots))
	for i, s := range shots {
		out[i] = ms(f(s))
	}
	return out
}

// dur converts fractional seconds to a Duration.
func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// concat joins windows into one sample.
func concat(windows [][]float64) []float64 {
	var out []float64
	for _, w := range windows {
		out = append(out, w...)
	}
	return out
}
