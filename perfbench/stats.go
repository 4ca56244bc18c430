package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail with fewer is one or two unlucky samples, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with an error, any percentile that has fewer than minBeyond
// samples beyond it, so a short run cannot report a p99 it did not
// measure. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(xs)
	if beyond := float64(n) * (1 - p); beyond+1e-9 < minBeyond {
		return 0, fmt.Errorf("p%s of %d samples has %.1f beyond it, need %d", pctName(p), n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// windowedPercentile is the median over windows of each window's
// p-quantile: a stall or a burst of noise from outside the process that
// lands in a minority of the windows moves some of the median's inputs,
// not the result. Every window must itself carry minBeyond samples past
// p.
func windowedPercentile(windows [][]float64, p float64) (float64, error) {
	if len(windows) == 0 {
		return 0, fmt.Errorf("no windows")
	}
	vals := make([]float64, 0, len(windows))
	for w, xs := range windows {
		v, err := percentile(xs, p)
		if err != nil {
			return 0, fmt.Errorf("window %d of %d: %w", w+1, len(windows), err)
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// windowedMedianTail is windowedPercentile at the median and at p.
func windowedMedianTail(windows [][]float64, p float64) (p50, tail float64, err error) {
	if p50, err = windowedPercentile(windows, 0.5); err != nil {
		return 0, 0, err
	}
	tail, err = windowedPercentile(windows, p)
	return p50, tail, err
}

// median is the middle value (mean of the middle two) of xs; 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartileSpread is (q3 - q1) / median with the quartiles computed as
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method):
// the run-to-run spread the benchmark's bounds are stated against.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(n+1) // 1-based
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}

// pctName renders 0.99 as "99" and 0.999 as "99.9".
func pctName(p float64) string {
	return fmt.Sprintf("%g", math.Round(p*1000)/10)
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
