package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of an ascending slice (NaN when
// empty): the smallest value with at least q of the samples at or below it.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailQuantile is the reporting rule for timings: the highest of
// p50/p90/p95/p99 that still has at least ten samples beyond it, so a
// reported tail is never one or two outliers. 0 means not even a median.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90, 50} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0
}

// quartiles returns Q1, median, Q3 by the same exclusive method as
// Python's statistics.quantiles(values, n=4), which the acceptance rule
// for this benchmark is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return asc[0], asc[0], asc[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return asc[j-1] + frac*(asc[j]-asc[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// sample is one timed operation: when it started (its due time, in an
// open loop) and how long it took, in milliseconds.
type sample struct {
	at time.Time
	ms float64
}

func values(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.ms
	}
	return out
}

const maxSlices = 5

// slicesFor is how many equal slices a stretch may be cut into while
// every slice still carries quantile q by the ten-samples-beyond rule
// (20 samples for a median, 200 for a p95): at most maxSlices, at least 1.
func slicesFor(n int, q float64) int {
	need := int(math.Round(10 / (1 - q)))
	return max(1, min(maxSlices, n/need))
}

// sliced is the steady way to read a quantile off a window on a shared
// box: cut [start, end) into equal slices, take q within each slice,
// report the median over slices. A burst of interference from outside
// spoils one slice, not the run; a change in the platform moves them all.
func sliced(samples []sample, start, end time.Time, q float64) float64 {
	k := slicesFor(len(samples), q)
	width := end.Sub(start) / time.Duration(k)
	buckets := make([][]float64, k)
	for _, s := range samples {
		i := int(s.at.Sub(start) / width)
		i = max(0, min(k-1, i))
		buckets[i] = append(buckets[i], s.ms)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, quantile(sorted(b), q))
		}
	}
	return median(per)
}
