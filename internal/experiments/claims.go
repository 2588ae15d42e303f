package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// A claim is one statement of the paper's evaluation the catalog is held
// to: a statistic of one experiment's rendered result, the bound it must
// keep and, where this repository quotes it, the paper's own value.
// claims is the one list of them and the one place this package's code
// quotes a paper number: the Figure 19 and Figure 22 renderers print
// their "paper:" text from it, and TestClaims checks every row against
// one catalog plan at Full scale and logs paper, simulated value, bound,
// margin and verdict per row.
type claim struct {
	exp   string // the Catalog experiment whose result check reads
	name  string // what is claimed, unique within exp
	paper string // the paper's value as quoted here; "" where none is
	// check returns the simulated statistic and the bound it is held to,
	// both read from exp's rendered result.
	check func(fmt.Stringer) (sim, bound float64)
	op    side
	// reversed, when set, names why the paper's claim comes out the
	// other way here. The row's check then states the reversal as it
	// stands, so a change that undoes it fails until the row is revised.
	reversed string
}

// side is which side of its bound a claim's statistic must lie on.
type side int

const (
	atLeast side = iota // sim ≥ bound
	above               // sim > bound
	atMost              // sim ≤ bound
	below               // sim < bound
)

// margin is how far sim lies inside its bound; negative is outside.
func (s side) margin(sim, bound float64) float64 {
	if s == atLeast || s == above {
		return sim - bound
	}
	return bound - sim
}

// holds reports whether a statistic at margin m keeps its bound.
func (s side) holds(m float64) bool {
	if s == above || s == below {
		return m > 0
	}
	return m >= 0
}

func (s side) String() string { return [...]string{">=", ">", "<=", "<"}[s] }

// of adapts a statistic of experiment result type R to claim.check.
func of[R fmt.Stringer](f func(R) (sim, bound float64)) func(fmt.Stringer) (float64, float64) {
	return func(r fmt.Stringer) (float64, float64) { return f(r.(R)) }
}

// paperValue returns the paper's value that claim exp/name quotes.
func paperValue(exp, name string) string {
	for _, c := range claims {
		if c.exp == exp && c.name == name {
			return c.paper
		}
	}
	panic("experiments: no claim " + exp + "/" + name)
}

// ms is a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peak is the largest value of a series, 0 for none.
func peak(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// resets is scheduler s's IW reset count.
func (r *Table3Result) resets(s string) float64 {
	return float64(r.IWResets[slices.Index(r.Schedulers, s)])
}

// probe is where the two reversed claims' causes are recorded: the k
// reading and Eq. 2 guard probe in ROADMAP.md at commit 650fd57.
const probe = "ROADMAP.md at 650fd57: the result depends on how ECF reads k (the unsent backlog, or unsent plus in flight) and on the Eq. 2 guard, and no one reading gets every claim's direction right"

// claims is every claim, grouped by experiment in Catalog order. Bounds
// are tolerances, not fits: none may move so that a number matches.
var claims = []claim{
	{exp: "table2", name: "rtt-falls-as-bandwidth-rises-ms", op: above,
		check: of(func(r *Table2Result) (float64, float64) {
			drop := math.Inf(1)
			for i := 1; i < len(r.BandwidthsMbps); i++ {
				drop = min(drop, ms(r.WifiRTT[i-1]-r.WifiRTT[i]), ms(r.LteRTT[i-1]-r.LteRTT[i]))
			}
			return drop, 0
		})},
	// Bufferbloat: a drop-tail buffer ahead of the shaped link, as tc
	// buffers in the paper's testbed.
	{exp: "table2", name: "wifi-rtt-ms-at-0.3-floor", paper: "969 ms", op: atLeast,
		check: of(func(r *Table2Result) (float64, float64) { return ms(r.WifiRTT[0]), 500 })},
	{exp: "table2", name: "wifi-rtt-ms-at-0.3-ceiling", op: atMost,
		check: of(func(r *Table2Result) (float64, float64) { return ms(r.WifiRTT[0]), 2000 })},
	{exp: "table2", name: "wifi-rtt-ms-at-8.6", paper: "40 ms", op: atMost,
		check: of(func(r *Table2Result) (float64, float64) { return ms(r.WifiRTT[5]), 100 })},
	{exp: "table2", name: "lte-rtt-ms-at-8.6", paper: "105 ms", op: atMost,
		check: of(func(r *Table2Result) (float64, float64) { return ms(r.LteRTT[5]), 180 })},

	{exp: "table3", name: "ecf-iw-resets-vs-default", paper: "BLEST 382, ECF 16", op: atMost,
		check: of(func(r *Table3Result) (float64, float64) { return r.resets("ecf"), r.resets("minrtt") })},
	{exp: "table3", name: "daps-iw-resets-vs-default", paper: "default 486, DAPS 92", op: atLeast,
		check: of(func(r *Table3Result) (float64, float64) { return r.resets("daps"), r.resets("minrtt") }),
		reversed: "DAPS chooses by deficit credit only among subflows that have window, so it never waits, and on this cell usually one subflow can send: " +
			"in 91,576 of 92,417 Select calls only one subflow could (ROADMAP.md at f64313b)"},

	{exp: "table4", name: "ecf-completion-improvement", paper: "0.882 s -> 0.650 s", op: atLeast,
		check: of(func(r *Table4Result) (float64, float64) { ci, _ := r.improvement(); return ci, -0.10 })},
	{exp: "table4", name: "ecf-ooo-improvement", paper: "0.297 s -> 0.087 s", op: atLeast,
		check: of(func(r *Table4Result) (float64, float64) { _, oi := r.improvement(); return oi, -0.15 })},

	{exp: "fig1", name: "off-periods", op: above,
		check: of(func(r *Figure1Result) (float64, float64) { return float64(r.OffPeriods), 0 })},

	// Grid cells are [wifi][lte]; index 0 is 0.3 Mbps, 5 is 8.6.
	{exp: "fig2", name: "default-ratio-heterogeneous-vs-symmetric", op: below,
		check: of(func(r *Figure2Result) (float64, float64) {
			return r.Grid.Cells[0][5].BitrateRatio, r.Grid.Cells[5][5].BitrateRatio
		})},

	{exp: "fig3", name: "wifi-peak-sndbuf-bytes", op: above,
		check: of(func(r *Figure3Result) (float64, float64) { return peak(r.Traces[0].V), 0 })},
	{exp: "fig3", name: "lte-peak-vs-wifi-peak-bytes", op: atLeast,
		check: of(func(r *Figure3Result) (float64, float64) { return peak(r.Traces[1].V), peak(r.Traces[0].V) })},

	// The median last-packet difference in seconds, at nanosecond grain.
	{exp: "fig5", name: "median-diff-0.3-vs-4.2", op: above,
		check: of(func(r *Figure5Result) (float64, float64) {
			median := func(i int) float64 { return time.Duration(r.CDFs[i].Quantile(0.5) * float64(time.Second)).Seconds() }
			return median(0), median(3)
		})},

	{exp: "fig9", name: "ecf-minus-default-at-0.3-8.6", op: atLeast,
		check: of(func(r *Figure9Result) (float64, float64) {
			return r.Grids["ecf"].Cells[0][5].BitrateRatio - r.Grids["minrtt"].Cells[0][5].BitrateRatio, 0.08
		})},
	{exp: "fig9", name: "ecf-vs-0.95-default-at-8.6-8.6", op: atLeast,
		check: of(func(r *Figure9Result) (float64, float64) {
			return r.Grids["ecf"].Cells[5][5].BitrateRatio, 0.95 * r.Grids["minrtt"].Cells[5][5].BitrateRatio
		})},
	// Not a paper claim: DAPS matches minRTT in every cell, for the cause
	// table3/daps-iw-resets-vs-default names.
	{exp: "fig9", name: "daps-cells-unlike-default", op: atMost,
		check: of(func(r *Figure9Result) (float64, float64) {
			n := 0
			for i, row := range r.Grids["daps"].Cells {
				for j, c := range row {
					if c.BitrateRatio != r.Grids["minrtt"].Cells[i][j].BitrateRatio {
						n++
					}
				}
			}
			return float64(n), 0
		})},

	{exp: "fig11", name: "ecf-wifi-cwnd-vs-1.5-default", op: atMost,
		check: of(func(r *CwndTraceResult) (float64, float64) {
			return r.Traces["ecf"].MeanValue(), 1.5 * r.Traces["minrtt"].MeanValue()
		})},
	{exp: "fig12", name: "ecf-lte-cwnd-vs-default", op: above,
		check: of(func(r *CwndTraceResult) (float64, float64) {
			return r.Traces["ecf"].MeanValue(), r.Traces["minrtt"].MeanValue()
		})},

	{exp: "fig14", name: "ecf-mean-ooo-vs-default-0.3-8.6", op: atMost,
		check: of(func(r *Figure14Result) (float64, float64) {
			d := r.Heterogeneous.Delays
			return d["ecf"].Mean(), d["minrtt"].Mean()
		})},
	{exp: "fig14", name: "ecf-mean-ooo-vs-2x-default-4.2-8.6", op: atMost,
		check: of(func(r *Figure14Result) (float64, float64) {
			d := r.Symmetric.Delays
			return d["ecf"].Mean(), d["minrtt"].Mean()*2 + 0.01
		})},

	{exp: "fig15", name: "ecf-vs-0.95-default-at-0.3-8.6", op: atLeast,
		check: of(func(r *Figure15Result) (float64, float64) { return r.ECFRatio[5], r.DefaultRatio[5] * 0.95 })},

	{exp: "fig16", name: "ecf-mean-throughput-vs-default", op: atLeast,
		check: of(func(r *Figure16Result) (float64, float64) { return r.meanThroughput("ecf"), r.meanThroughput("minrtt") })},

	// 512 KB, 1 Mbps WiFi, 10 Mbps LTE: mean completion seconds.
	{exp: "fig18", name: "ecf-512KB-vs-1.05-default-at-1-10", paper: "ECF ~13-20% faster", op: atMost,
		check: of(func(r *Figure18Result) (float64, float64) {
			m := r.Mean[512<<10]
			return m["ecf"][9], m["minrtt"][9] * 1.05
		})},

	// Maps are [lte][wifi]. A value of 1 is a difference inside the
	// noise band, so this is stricter than a band widened by 0.2 s.
	{exp: "fig19", name: "128KB-ratio-at-1-5", paper: "Figure 19a all white", op: atMost,
		check: of(func(r *Figure19Result) (float64, float64) { return r.Maps[128<<10].At(4, 0), 1 })},
	{exp: "fig19", name: "worse-cells", paper: "none", op: above,
		check: of(func(r *Figure19Result) (float64, float64) { return float64(r.worseCells()), 0 }),
		reversed: probe + ". Worse cells also fall as runs per cell rise: 8 at 5 runs, 4 at 10, 2 at 20 (ROADMAP.md at f64313b). " +
			"Which noise band the paper uses is not known here: this repository has called it both one standard deviation and the combined deviation. " +
			"The code's band is the sum of both schedulers' sample standard deviations; one deviation would be narrower and count more cells"},

	{exp: "fig22", name: "ecf-mean-vs-0.85-default", op: atLeast,
		check: of(func(r *Figure22Result) (float64, float64) { def, ecf := r.meanThroughput(); return ecf, def * 0.85 })},
	{exp: "fig22", name: "run1-ecf-vs-0.85-default", op: atLeast,
		check: of(func(r *Figure22Result) (float64, float64) { return r.ECF[0], r.Default[0] * 0.85 })},
	// The paper's means: default 6.72 Mbps, ECF 7.79 Mbps.
	{exp: "fig22", name: "improvement", paper: "16%", op: below,
		check:    of(func(r *Figure22Result) (float64, float64) { return r.improvement(), 0 }),
		reversed: probe + ". A 1200 s playout does not move it (-5%, ROADMAP.md at f64313b)"},
}
