package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dash"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// gridRecord keeps one (WiFi, LTE) streaming cell of a §5.2 sweep.
func gridRecord(s Scenario, out *Outcome) GridCell {
	wifi, lte := s.Paths[0].RateMbps, s.Paths[1].RateMbps
	return GridCell{
		WifiMbps:            wifi,
		LteMbps:             lte,
		BitrateRatio:        bitrateRatio(s, out),
		ThroughputMbps:      out.Result.AvgThroughputMbps(),
		IdealThroughputMbps: wifi + lte,
		FastFraction:        out.FastFraction,
		IdealFraction:       out.IdealFraction,
		IWResets:            out.IWResets,
	}
}

// bitrateRatio is the heat-map value of Figures 2, 9 and 15: the
// session's average bit rate over the ideal one for the paths' aggregate
// bandwidth, at most 1.
func bitrateRatio(s Scenario, out *Outcome) float64 {
	ideal := dash.IdealBitrateMbps(s.Paths[0].RateMbps+s.Paths[1].RateMbps, dash.StandardLadder)
	if ideal <= 0 {
		return 0
	}
	return min(out.Result.AvgBitrateMbps()/ideal, 1)
}

// gridFamily is one scheduler's 36-cell §5.2 sweep, "grid/<scheduler>"
// (with "/no-reset" when idle restart is off, Figure 6): cell k streams
// WiFi at bandwidth k/6 and LTE at k%6 of the grid axis.
func gridFamily(p *Plan, scheduler string, noIdleRestart bool) *family[GridCell] {
	name := "grid/" + scheduler
	if noIdleRestart {
		name += "/no-reset"
	}
	return declare(p, name, gridRecord, func() []Scenario {
		bws := trace.GridBandwidthsMbps
		cells := make([]Scenario, 0, len(bws)*len(bws))
		for _, wifi := range bws {
			for _, lte := range bws {
				s := Streaming(wifi, lte, scheduler, p.sc.GridVideoSec)
				s.NoIdleRestart = noIdleRestart
				cells = append(cells, s)
			}
		}
		return cells
	})
}

// GridCell is the outcome of one (WiFi, LTE) bandwidth cell.
type GridCell struct {
	WifiMbps, LteMbps float64
	// BitrateRatio is measured avg bitrate / ideal avg bitrate (the heat
	// map value of Figures 2, 9, 15; darker is better).
	BitrateRatio float64
	// ThroughputMbps is the mean per-chunk download throughput (Figure 6).
	ThroughputMbps float64
	// IdealThroughputMbps is the aggregate bandwidth (Figure 6's "Ideal").
	IdealThroughputMbps float64
	// FastFraction and IdealFraction are the traffic-split values of
	// Figures 7 and 10.
	FastFraction, IdealFraction float64
	// IWResets sums subflow window resets.
	IWResets int64
}

// GridResult is a full 6×6 sweep for one scheduler.
type GridResult struct {
	Scheduler string
	// Cells[i][j]: i indexes WiFi bandwidth, j indexes LTE bandwidth.
	Cells [][]GridCell
	// Bandwidths are the grid axis values.
	Bandwidths []float64
}

// readGrid registers one scheduler's sweep on the plan and returns the
// result structure, filled in when the plan runs.
func readGrid(p *Plan, scheduler string, noIdleRestart bool) *GridResult {
	bws := trace.GridBandwidthsMbps
	n := len(bws)
	res := &GridResult{Scheduler: scheduler, Bandwidths: bws, Cells: make([][]GridCell, n)}
	for i := range res.Cells {
		res.Cells[i] = make([]GridCell, n)
	}
	gridFamily(p, scheduler, noIdleRestart).read(func(k int, c GridCell) { res.Cells[k/n][k%n] = c })
	return res
}

// heatmap converts the sweep to a bitrate-ratio heat map (rows: LTE,
// cols: WiFi — the paper's axes).
func (g *GridResult) heatmap() *metrics.Heatmap {
	labels := make([]string, len(g.Bandwidths))
	for i, b := range g.Bandwidths {
		labels[i] = fmtMbps(b)
	}
	h := metrics.NewHeatmap(
		fmt.Sprintf("Ratio of Measured vs. Ideal Bit Rate — %s (darker is better)", g.Scheduler),
		labels, labels)
	for i := range g.Bandwidths { // wifi (cols)
		for j := range g.Bandwidths { // lte (rows)
			h.Set(j, i, g.Cells[i][j].BitrateRatio)
		}
	}
	return h
}

// Figure2Result is the default-scheduler heat map of §3.1.
type Figure2Result struct {
	Grid *GridResult
}

// Figure2 reproduces the motivation heat map: the default scheduler's
// achieved/ideal bitrate ratio over the 6×6 grid.
func Figure2(sc Scale) *Figure2Result { return alone(sc, planFigure2) }

func planFigure2(p *Plan) func() *Figure2Result {
	return just(&Figure2Result{Grid: readGrid(p, "minrtt", false)})
}

// String renders both numeric and shaded forms.
func (r *Figure2Result) String() string {
	h := r.Grid.heatmap()
	return "Figure 2: " + h.String() + h.Shade()
}

// Figure6Result compares throughput with and without the CWND reset.
type Figure6Result struct {
	Bandwidths []float64
	WithReset  *GridResult
	NoReset    *GridResult
}

// Figure6 reruns the default-scheduler grid with idle restart disabled.
func Figure6(sc Scale) *Figure6Result { return alone(sc, planFigure6) }

func planFigure6(p *Plan) func() *Figure6Result {
	return just(&Figure6Result{
		Bandwidths: trace.GridBandwidthsMbps,
		WithReset:  readGrid(p, "minrtt", false),
		NoReset:    readGrid(p, "minrtt", true),
	})
}

// String renders throughput rows per bandwidth pair.
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6: Throughput w/ and w/o CWND reset (Default scheduler)\n")
	t := &metrics.Table{Header: []string{"WiFi-LTE (Mbps)", "w/ reset", "w/o reset", "Ideal"}}
	for i, wifi := range r.Bandwidths {
		for j, lte := range r.Bandwidths {
			t.AddRow(
				fmtMbps(wifi)+"-"+fmtMbps(lte),
				fmt.Sprintf("%.2f", r.WithReset.Cells[i][j].ThroughputMbps),
				fmt.Sprintf("%.2f", r.NoReset.Cells[i][j].ThroughputMbps),
				fmt.Sprintf("%.2f", wifi+lte),
			)
		}
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure7Result is the default scheduler's traffic split vs ideal.
type Figure7Result struct {
	Grid *GridResult
}

// Figure7 reports the fraction of traffic on the fast subflow under the
// default scheduler across the grid.
func Figure7(sc Scale) *Figure7Result { return alone(sc, planFigure7) }

func planFigure7(p *Plan) func() *Figure7Result {
	return just(&Figure7Result{Grid: readGrid(p, "minrtt", false)})
}

// String renders fraction rows.
func (r *Figure7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7: Fraction of Traffic on Fast Subflow (Default)\n")
	t := &metrics.Table{Header: []string{"WiFi-LTE (Mbps)", "Default", "Ideal"}}
	for i, wifi := range r.Grid.Bandwidths {
		for j, lte := range r.Grid.Bandwidths {
			c := r.Grid.Cells[i][j]
			t.AddRow(fmtMbps(wifi)+"-"+fmtMbps(lte),
				fmt.Sprintf("%.3f", c.FastFraction),
				fmt.Sprintf("%.3f", c.IdealFraction))
		}
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure9Result is the four-scheduler heat map comparison of §5.2.1.
type Figure9Result struct {
	Grids map[string]*GridResult
	Order []string
}

// Figure9 sweeps the grid for default, ECF, DAPS and BLEST.
func Figure9(sc Scale) *Figure9Result { return alone(sc, planFigure9) }

func planFigure9(p *Plan) func() *Figure9Result {
	order := []string{"minrtt", "ecf", "daps", "blest"}
	res := &Figure9Result{Grids: make(map[string]*GridResult), Order: order}
	for _, s := range order {
		res.Grids[s] = readGrid(p, s, false)
	}
	return just(res)
}

// MeanRatio returns the grid-average bitrate ratio per scheduler — a
// scalar summary of "who is darker".
func (r *Figure9Result) MeanRatio(scheduler string) float64 {
	return r.Grids[scheduler].heatmap().Mean()
}

// String renders all four heat maps.
func (r *Figure9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: Measured/Ideal Bit Rate by Scheduler (darker is better)\n")
	for _, s := range r.Order {
		h := r.Grids[s].heatmap()
		b.WriteString(h.String())
		b.WriteString(h.Shade())
		b.WriteString("\n")
	}
	return b.String()
}

// Figure10Result compares the BLEST/ECF traffic splits against ideal.
type Figure10Result struct {
	Bandwidths []float64
	BLEST      *GridResult
	ECF        *GridResult
}

// Figure10 reports traffic splits for the two wait-capable schedulers.
func Figure10(sc Scale) *Figure10Result { return alone(sc, planFigure10) }

func planFigure10(p *Plan) func() *Figure10Result {
	return just(&Figure10Result{
		Bandwidths: trace.GridBandwidthsMbps,
		BLEST:      readGrid(p, "blest", false),
		ECF:        readGrid(p, "ecf", false),
	})
}

// String renders the split rows.
func (r *Figure10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: Fraction of Traffic on Fast Subflow (Streaming)\n")
	t := &metrics.Table{Header: []string{"WiFi-LTE (Mbps)", "BLEST", "ECF", "Ideal"}}
	for i, wifi := range r.Bandwidths {
		for j, lte := range r.Bandwidths {
			t.AddRow(fmtMbps(wifi)+"-"+fmtMbps(lte),
				fmt.Sprintf("%.3f", r.BLEST.Cells[i][j].FastFraction),
				fmt.Sprintf("%.3f", r.ECF.Cells[i][j].FastFraction),
				fmt.Sprintf("%.3f", r.ECF.Cells[i][j].IdealFraction))
		}
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure15Result is the four-subflow study of §5.2.5: 0.3 Mbps WiFi,
// varying LTE, two subflows per interface.
type Figure15Result struct {
	LteBandwidths []float64
	DefaultRatio  []float64
	ECFRatio      []float64
}

// Figure15 compares default vs ECF with four subflows: cell k of the
// "fig15" family streams 0.3 Mbps WiFi against LTE at bandwidth k/2 of
// the grid axis, under the default scheduler when k is even and ECF when
// it is odd.
func Figure15(sc Scale) *Figure15Result { return alone(sc, planFigure15) }

func planFigure15(p *Plan) func() *Figure15Result {
	bws := trace.GridBandwidthsMbps
	res := &Figure15Result{
		LteBandwidths: bws,
		DefaultRatio:  make([]float64, len(bws)),
		ECFRatio:      make([]float64, len(bws)),
	}
	schedulers := []string{"minrtt", "ecf"}
	fam := declare(p, "fig15", bitrateRatio, func() []Scenario {
		var cells []Scenario
		for _, lte := range bws {
			for _, sched := range schedulers {
				s := Streaming(0.3, lte, sched, p.sc.GridVideoSec)
				s.SubflowsPerPath = 2
				cells = append(cells, s)
			}
		}
		return cells
	})
	fam.read(func(k int, ratio float64) {
		if k%2 == 0 {
			res.DefaultRatio[k/2] = ratio
		} else {
			res.ECFRatio[k/2] = ratio
		}
	})
	return just(res)
}

// String renders the two rows of the strip heat map.
func (r *Figure15Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 15: Measured/Ideal Bit Rate with 4 Subflows (0.3 Mbps WiFi)\n")
	t := &metrics.Table{Header: []string{"LTE (Mbps)"}}
	for _, bw := range r.LteBandwidths {
		t.Header = append(t.Header, fmtMbps(bw))
	}
	def := []string{"Default"}
	ecf := []string{"ECF"}
	for i := range r.LteBandwidths {
		def = append(def, fmt.Sprintf("%.2f", r.DefaultRatio[i]))
		ecf = append(ecf, fmt.Sprintf("%.2f", r.ECFRatio[i]))
	}
	t.AddRow(ecf...)
	t.AddRow(def...)
	b.WriteString(t.String())
	return b.String()
}
