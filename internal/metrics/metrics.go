// Package metrics provides the statistics and presentation helpers the
// experiment drivers use to report paper-style tables, CDFs/CCDFs and
// heat maps.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Summary holds moments of a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes moments. An empty input returns the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(len(xs)))
	return s
}

// DurationsToSeconds converts a duration slice to seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// The statistics of a distribution are defined once, below, over an
// ascending sample read through a conversion to float seconds: the
// identity for a CDF, Duration.Seconds for a DelayDist. The conversion
// is monotone, so the converted sample is ascending too, and a
// DelayDist's statistics are bit for bit those of NewCDF over its
// samples in seconds. Only the samples a statistic probes are
// converted.

// atOf returns P(X <= x): the index of the first sample above x, found
// with one binary search.
func atOf[T any](s []T, sec func(T) float64, x float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := sort.Search(len(s), func(i int) bool { return sec(s[i]) > x })
	return float64(i) / float64(len(s))
}

// quantileOf returns the p-quantile for p in [0, 1], interpolating
// linearly between the two samples around p·(n−1).
func quantileOf[T any](s []T, sec func(T) float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return sec(s[0])
	}
	if p >= 1 {
		return sec(s[len(s)-1])
	}
	idx := p * float64(len(s)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(s) {
		return sec(s[lo])
	}
	return sec(s[lo])*(1-frac) + sec(s[lo+1])*frac
}

// meanOf returns the sample mean, summed in ascending order.
func meanOf[T any](s []T, sec func(T) float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += sec(v)
	}
	return sum / float64(len(s))
}

// CDF is an empirical distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples.
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

func identity(x float64) float64 { return x }

// at returns P(X <= x).
func (c *CDF) at(x float64) float64 { return atOf(c.sorted, identity, x) }

// ccdfAt returns P(X > x).
func (c *CDF) ccdfAt(x float64) float64 { return 1 - c.at(x) }

// Quantile returns the p-quantile for p in [0, 1].
func (c *CDF) Quantile(p float64) float64 { return quantileOf(c.sorted, identity, p) }

// Mean returns the sample mean.
func (c *CDF) Mean() float64 { return meanOf(c.sorted, identity) }

// Heatmap is a labeled 2-D grid of values in [0, ∞), rendered with the
// darker-is-better shading of the paper's Figures 2, 9, 15 and 19.
type Heatmap struct {
	Title     string
	RowLabels []string // e.g. LTE bandwidths (top to bottom = last to first)
	ColLabels []string // e.g. WiFi bandwidths
	Values    [][]float64
}

// NewHeatmap allocates a rows×cols map.
func NewHeatmap(title string, rowLabels, colLabels []string) *Heatmap {
	v := make([][]float64, len(rowLabels))
	for i := range v {
		v[i] = make([]float64, len(colLabels))
	}
	return &Heatmap{Title: title, RowLabels: rowLabels, ColLabels: colLabels, Values: v}
}

// Set stores one cell.
func (h *Heatmap) Set(row, col int, v float64) { h.Values[row][col] = v }

// At reads one cell.
func (h *Heatmap) At(row, col int) float64 { return h.Values[row][col] }

// Mean returns the average over all cells.
func (h *Heatmap) Mean() float64 {
	var sum float64
	var n int
	for _, row := range h.Values {
		for _, v := range row {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the grid with numeric cells, rows printed last-to-first
// so the origin sits at the lower left like the paper's axes.
func (h *Heatmap) String() string {
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	for i := len(h.RowLabels) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%6s |", h.RowLabels[i])
		for j := range h.ColLabels {
			fmt.Fprintf(&b, " %5.2f", h.Values[i][j])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%6s  ", "")
	for _, c := range h.ColLabels {
		fmt.Fprintf(&b, " %5s", c)
	}
	b.WriteString("\n")
	return b.String()
}

// Shade renders the grid as ASCII shading (darker character = higher
// value, matching "darker is better").
func (h *Heatmap) Shade() string {
	shades := []rune(" .:-=+*#%@")
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	for i := len(h.RowLabels) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%6s |", h.RowLabels[i])
		for j := range h.ColLabels {
			v := h.Values[i][j]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			idx := int(v * float64(len(shades)-1))
			ch := shades[idx]
			fmt.Fprintf(&b, " %c%c", ch, ch)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%6s  ", "")
	for _, c := range h.ColLabels {
		fmt.Fprintf(&b, " %2s", c)
	}
	b.WriteString("\n")
	return b.String()
}

// TimeSeries collects (t, v) points, e.g. CWND traces for Figures 11-12.
type TimeSeries struct {
	T []time.Duration
	V []float64
}

// Add appends one point.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.T = append(ts.T, t)
	ts.V = append(ts.V, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.T) }

// MeanValue returns the time-unweighted mean of V.
func (ts *TimeSeries) MeanValue() float64 {
	if len(ts.V) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ts.V {
		sum += v
	}
	return sum / float64(len(ts.V))
}

// Downsample returns every k-th point (k >= 1), for compact printing.
func (ts *TimeSeries) Downsample(k int) *TimeSeries {
	if k < 1 {
		k = 1
	}
	out := &TimeSeries{}
	for i := 0; i < ts.Len(); i += k {
		out.Add(ts.T[i], ts.V[i])
	}
	return out
}

// Table prints aligned rows: header plus formatted cells. It is the
// common surface for "same rows the paper reports" output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hd := range t.Header {
		widths[i] = len(hd)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}
