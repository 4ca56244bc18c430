package main

import (
	"sync"
	"time"
)

// shot is one scheduled operation: when it was due, when a connection
// actually sent it, when its answer was in, and how it went.
type shot struct {
	due, sent, done time.Time

	status   int   // HTTP status; 0 on a transport error
	serverUs int64 // the reply's own latency_us (0 when absent)
	degraded bool
	invalid  string // non-empty when the answer failed its output check
	why      string // failed operations: the transport error or the answer's body
	items    int    // reads: items in the answer
	edges    int    // appends: edges acknowledged
}

func (s shot) failed() bool { return s.status != 200 }

// latency is the operation's time from its due time: generator lateness
// and queueing behind earlier operations included.
func (s shot) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind its schedule the generator sent the operation.
func (s shot) late() time.Duration { return s.sent.Sub(s.due) }

// rtt is the round trip from the actual send.
func (s shot) rtt() time.Duration { return s.done.Sub(s.sent) }

// openLoop runs n operations due at start + i*interval over conns
// workers, each a serial connection: worker w runs do(w, i) for every
// operation it takes off the shared queue. The schedule never waits for
// answers, so a slow operation delays the ones queued behind it, and
// because every operation is timed from its due time that delay is
// charged to them — the open-loop accounting that keeps a stall from
// hiding as a reduced offered rate.
func openLoop(start time.Time, interval time.Duration, n, conns int, do func(w, i int) shot) []shot {
	out := make([]shot, n)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	queue := make(chan int, n) // one slot per send: the schedule never blocks on busy workers
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				sent := time.Now()
				s := do(w, i)
				s.due, s.sent, s.done = due(i), sent, time.Now()
				out[i] = s
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// interval is the spacing of a constant-rate schedule.
func interval(rate float64) time.Duration { return time.Duration(float64(time.Second) / rate) }

// backlogSlack is how much the generator may fall further behind over a
// rung before the rung counts as a growing backlog.
const backlogSlack = 2 * time.Millisecond

// backlogGrows reports whether the generator fell progressively behind
// its schedule: the median lateness of the last quarter of sends exceeds
// that of the first quarter by more than backlogSlack. Under a rate the
// system sustains, lateness is flat; past it, lateness grows with every
// send and the latency of the rung says only how long the rung lasted.
func backlogGrows(shots []shot) bool {
	q := len(shots) / 4
	if q == 0 {
		return false
	}
	first := make([]float64, q)
	last := make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = ms(shots[i].late())
		last[i] = ms(shots[len(shots)-q+i].late())
	}
	return median(last)-median(first) > ms(backlogSlack)
}

// rung is one ladder step's verdict.
type rung struct {
	Rate     float64 `json:"rate"`
	P99Ms    float64 `json:"p99_ms"`
	FailFrac float64 `json:"fail_frac"`
	Backlog  bool    `json:"backlog"`
	Pass     bool    `json:"pass"`
}

// Ladder limits: a rung is sustained when its p99 read latency is within
// p99LimitMs, at most maxFailFrac of its reads failed, and its backlog
// did not grow.
const (
	p99LimitMs  = 25
	maxFailFrac = 0.001
)

// judgeRung applies the ladder limits to one rung's reads.
func judgeRung(rate float64, shots []shot) rung {
	r := rung{Rate: rate, Backlog: backlogGrows(shots)}
	lat := make([]float64, len(shots))
	var failed int
	for i, s := range shots {
		lat[i] = ms(s.latency())
		if s.failed() {
			failed++
		}
	}
	if len(shots) > 0 {
		r.FailFrac = float64(failed) / float64(len(shots))
	}
	p99, err := percentile(lat, 0.99)
	if err != nil {
		return r // too few reads to judge: not sustained
	}
	r.P99Ms = p99
	r.Pass = p99 <= p99LimitMs && r.FailFrac <= maxFailFrac && !r.Backlog
	return r
}

// climb offers the ladder's rates in order through run and stops at the
// first rung that is not sustained. It returns the rungs run and the
// highest sustained rate, 0 when even the first rung fails.
func climb(rates []float64, run func(rate float64) rung) (rungs []rung, best float64) {
	for _, rate := range rates {
		r := run(rate)
		rungs = append(rungs, r)
		if !r.Pass {
			break
		}
		best = rate
	}
	return rungs, best
}
