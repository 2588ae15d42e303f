package main

import (
	"sort"
	"time"
)

// summary is what the benchmark reports for one timing: the median over
// the timed iterations with min, max and the sample count beside it. A
// run takes at most a few dozen samples, which supports no percentile
// above the median, so none is computed.
type summary struct {
	Median, Min, Max float64
	N                int
}

// summarize returns the median, min and max of xs. The median of an
// even count is the mean of the two middle samples. It panics on an
// empty slice: every caller has run at least one iteration.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		panic("benchmark: summarize of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[n-1], N: n}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// relGap is the distance between two readings of one metric as a share
// of the first — what -selfcheck compares with the metric's bound.
func relGap(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	g := (b - a) / a
	if g < 0 {
		g = -g
	}
	return g
}
