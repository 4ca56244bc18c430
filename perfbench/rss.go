package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// rssPeriod is how often the resident set is sampled.
const rssPeriod = 100 * time.Millisecond

// rssSampler samples the process's resident set on its own goroutine
// until stopped. A peak would record where a garbage collection happened
// to fall; the median of the samples records the memory the workload
// holds.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB; read only after done is closed
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// medianMB stops the sampler and returns the median sample, or the
// runtime's obtained memory where /proc is unavailable.
func (s *rssSampler) medianMB() float64 {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	return median(s.samples)
}

// residentMB reads the resident set from /proc/self/statm.
func residentMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
