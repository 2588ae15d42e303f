package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// webLossRate adds light random loss to the §5.4/§5.5 experiments so
// that repeated runs (different seeds) produce the run-to-run variance
// the paper's error bars and stddev-based normalization rely on.
const webLossRate = 0.001

// wgetSizes are the transfer sizes of Figure 18.
var wgetSizes = []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20}

// wgetScenario downloads one object of the given size over the paper's
// lossy two-path topology, runs times. Each run perturbs both paths'
// propagation delays with a seeded random walk, reproducing the
// run-to-run variance a physical testbed shows (the paper's Figure 19
// normalization clamps differences inside the combined standard
// deviation to 1.0, which only makes sense with real variance). Run r's
// seeds derive from runSeed(seedExp, seedCell, r); callers comparing
// schedulers pass a seedCell that excludes the scheduler so both sides
// see identical network randomness (the paper's paired design, which
// Figure 19's stddev normalization depends on). A run ends at quiescence
// (see webRun), five virtual minutes at most.
func wgetScenario(scheduler string, wifiMbps, lteMbps float64, bytes int64, runs int, seedExp string, seedCell int) Scenario {
	return Scenario{
		Paths: [2]core.PathSpec{
			{Name: "wifi", RateMbps: wifiMbps, BaseRTT: core.WiFiBaseRTT, LossRate: webLossRate},
			{Name: "lte", RateMbps: lteMbps, BaseRTT: core.LTEBaseRTT, LossRate: webLossRate},
		},
		Scheduler: scheduler,
		Jitter: [2]Jitter{
			{Amplitude: 0.3, Interval: 100 * time.Millisecond, Until: time.Minute},
			{Amplitude: 0.2, Interval: 100 * time.Millisecond, Until: time.Minute},
		},
		Workload: Workload{Kind: workWget, Bytes: bytes, Runs: runs, SeedExp: seedExp, SeedCell: seedCell},
		Limit:    5 * time.Minute,
	}
}

// wgetSummary summarizes a wget's completion times in seconds.
func wgetSummary(out *Outcome) metrics.Summary {
	return metrics.Summarize(metrics.DurationsToSeconds(out.Completions))
}

// Figure18Result holds average completion times for the 1 Mbps WiFi row.
type Figure18Result struct {
	Sizes         []int64
	LteBandwidths []float64
	Schedulers    []string
	// Mean[size][scheduler][lteIdx] in seconds.
	Mean map[int64]map[string][]float64
}

// Figure18 sweeps wget completion times: WiFi fixed at 1 Mbps, LTE from
// 1 to 10 Mbps, four sizes, four schedulers.
func Figure18(sc Scale) *Figure18Result { return alone(sc, planFigure18) }

func planFigure18(p *Plan) func() *Figure18Result {
	res := &Figure18Result{
		Sizes:         wgetSizes,
		LteBandwidths: trace.WebBandwidthsMbps,
		Schedulers:    paperSchedulers,
		Mean:          make(map[int64]map[string][]float64),
	}
	for _, size := range res.Sizes {
		res.Mean[size] = make(map[string][]float64)
		for _, s := range res.Schedulers {
			res.Mean[size][s] = make([]float64, len(res.LteBandwidths))
		}
	}
	// Cell record: the full completion-time summary (the figure prints
	// the mean; the spread stays available to cache consumers).
	nSch, nLte := len(res.Schedulers), len(res.LteBandwidths)
	fam := declare(p, "fig18", func(_ Scenario, out *Outcome) metrics.Summary {
		return wgetSummary(out)
	}, func() []Scenario {
		var cells []Scenario
		for si, size := range res.Sizes {
			for _, s := range res.Schedulers {
				for li, lte := range res.LteBandwidths {
					// (size, lte): scheduler-independent seeds.
					cells = append(cells, wgetScenario(s, 1, lte, size, p.sc.WebRuns, "fig18", si*nLte+li))
				}
			}
		}
		return cells
	})
	fam.read(func(k int, sum metrics.Summary) {
		size := res.Sizes[k/(nSch*nLte)]
		s := res.Schedulers[k/nLte%nSch]
		res.Mean[size][s][k%nLte] = sum.Mean
	})
	return just(res)
}

// String renders one block per size.
func (r *Figure18Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 18: Average Download Completion Time (s), WiFi = 1 Mbps\n")
	for _, size := range r.Sizes {
		fmt.Fprintf(&b, "-- %d KB --\n", size/1024)
		t := &metrics.Table{Header: append([]string{"LTE (Mbps)"}, r.Schedulers...)}
		for li, lte := range r.LteBandwidths {
			row := []string{fmtMbps(lte)}
			for _, s := range r.Schedulers {
				row = append(row, fmt.Sprintf("%.3f", r.Mean[size][s][li]))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// Figure19Result is the ECF/default completion-ratio heat map over the
// 10×10 grid, per size. A cell whose difference in mean completion time
// is within the sum of both schedulers' sample standard deviations is
// clamped to 1.0 (the "fig19/worse-cells" claim names what is known of
// the paper's band).
type Figure19Result struct {
	Sizes []int64
	Maps  map[int64]*metrics.Heatmap
}

// Figure19 computes normalized completion-time ratios.
func Figure19(sc Scale) *Figure19Result { return alone(sc, planFigure19) }

func planFigure19(p *Plan) func() *Figure19Result {
	res := &Figure19Result{Sizes: wgetSizes, Maps: make(map[int64]*metrics.Heatmap)}
	labels := make([]string, len(trace.WebBandwidthsMbps))
	for i, bw := range trace.WebBandwidthsMbps {
		labels[i] = fmtMbps(bw)
	}
	for _, size := range res.Sizes {
		res.Maps[size] = metrics.NewHeatmap(
			fmt.Sprintf("ECF/Default completion ratio, %d KB (<1 = ECF faster)", size/1024),
			labels, labels)
	}
	// One cell per (size, wifi, lte), each writing its own pre-allocated
	// heat-map slot. The cell runs both schedulers over shared seeds
	// (paired runs) and keeps both summaries, so the normalization stays
	// recomputable from cache.
	nBW := len(trace.WebBandwidthsMbps)
	fam := declare(p, "fig19", func(s Scenario, out *Outcome) wgetPair {
		return wgetPair{Def: wgetSummary(out), ECF: wgetSummary(out.Versus)}
	}, func() []Scenario {
		var cells []Scenario
		for _, size := range res.Sizes {
			for _, wifi := range trace.WebBandwidthsMbps {
				for _, lte := range trace.WebBandwidthsMbps {
					s := wgetScenario("minrtt", wifi, lte, size, p.sc.WebRuns, "fig19", len(cells))
					s.Versus = "ecf"
					cells = append(cells, s)
				}
			}
		}
		return cells
	})
	fam.read(func(k int, pair wgetPair) {
		size := res.Sizes[k/(nBW*nBW)]
		ratio := 1.0
		diff := pair.Def.Mean - pair.ECF.Mean
		band := pair.Def.StdDev + pair.ECF.StdDev
		if diff > band || diff < -band {
			if pair.Def.Mean > 0 {
				ratio = pair.ECF.Mean / pair.Def.Mean
			}
		}
		res.Maps[size].Set(k%nBW, k/nBW%nBW, ratio)
	})
	return just(res)
}

// wgetPair is the cached record of one Figure 19 cell: both schedulers'
// completion summaries under shared per-run seeds.
type wgetPair struct {
	Def metrics.Summary
	ECF metrics.Summary
}

// worseCells counts cells where ECF is slower than default beyond the
// noise band (the "fig19/worse-cells" claim).
func (r *Figure19Result) worseCells() int {
	n := 0
	for _, h := range r.Maps {
		for _, row := range h.Values {
			for _, v := range row {
				if v > 1.0001 {
					n++
				}
			}
		}
	}
	return n
}

// String renders the ratio maps.
func (r *Figure19Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 19: ECF Completion Time Normalized by Default\n")
	for _, size := range r.Sizes {
		b.WriteString(r.Maps[size].String())
	}
	fmt.Fprintf(&b, "cells where ECF does worse: %d (paper: %s)\n", r.worseCells(), paperValue("fig19", "worse-cells"))
	return b.String()
}

// webPageConfig is one §5.5 bandwidth configuration.
type webPageConfig struct {
	Label    string
	WifiMbps float64
	LteMbps  float64
}

// figure20Configs are the three panels of Figures 20/21.
var figure20Configs = []webPageConfig{
	{"5.0 Mbps WiFi and 5.0 Mbps LTE", 5, 5},
	{"1.0 Mbps WiFi and 5.0 Mbps LTE", 1, 5},
	{"1.0 Mbps WiFi and 10.0 Mbps LTE", 1, 10},
}

// PageOutcome is one page-fetch run's telemetry: the per-object
// completion times (a hundred-odd values) and the per-packet OOO delays
// of all six connections pooled, in packed form.
type PageOutcome struct {
	Completions []time.Duration
	OOODelays   metrics.DelayDist
}

// pageRecord keeps a page-fetch cell's PageOutcome.
func pageRecord(_ Scenario, out *Outcome) *PageOutcome {
	return &PageOutcome{Completions: out.Completions, OOODelays: metrics.NewDelayDist(out.OOODelays)}
}

// pageScenario fetches the CNN-like page — 107 objects over six parallel
// persistent MPTCP connections (twelve subflows) — over the paper's
// lossy two-path topology. The run ends at quiescence (see webRun), ten
// virtual minutes at most.
func pageScenario(scheduler string, wifiMbps, lteMbps float64, seed uint64) Scenario {
	return Scenario{
		Paths: [2]core.PathSpec{
			{Name: "wifi", RateMbps: wifiMbps, BaseRTT: core.WiFiBaseRTT, LossRate: webLossRate, Seed: seed * 13},
			{Name: "lte", RateMbps: lteMbps, BaseRTT: core.LTEBaseRTT, LossRate: webLossRate, Seed: seed*29 + 3},
		},
		Scheduler: scheduler,
		Workload:  Workload{Kind: workPage, PageSeed: seed, Conns: 6},
		Limit:     10 * time.Minute,
	}
}

// WebBrowsingResult carries per-scheduler distributions for the three
// §5.5 configurations, from one shared set of page fetches. Each figure
// builds only the distributions it prints: Figure 20 fills Completions,
// Figure 21 fills OOO.
type WebBrowsingResult struct {
	Figure      string
	Configs     []webPageConfig
	Schedulers  []string
	Completions map[string][]*metrics.CDF      // scheduler -> per-config object completion times
	OOO         map[string][]metrics.DelayDist // scheduler -> per-config OOO delays, runs pooled
}

// planWebBrowsing reads the WebRuns sessions of every (scheduler,
// config); its renderer hands fill, scheduler-major, each pair's
// outcomes in run order.
func planWebBrowsing(p *Plan, figure string, fill func(*WebBrowsingResult, [][]*PageOutcome)) func() *WebBrowsingResult {
	res := &WebBrowsingResult{
		Figure:     figure,
		Configs:    figure20Configs,
		Schedulers: paperSchedulers,
	}
	// One cell per (scheduler, config, run) session, grouped in index
	// order afterwards so the distributions see samples in the same
	// sequence regardless of worker count. Figures 20 and 21 read the
	// same family. Seeds derive per (config, run), shared across
	// schedulers (paired sessions).
	nCfg, nRun := len(res.Configs), p.sc.WebRuns
	outs := make([]*PageOutcome, len(res.Schedulers)*nCfg*nRun)
	fam := declare(p, "web-browsing", pageRecord, func() []Scenario {
		var cells []Scenario
		for _, s := range res.Schedulers {
			for ci, cfg := range res.Configs {
				for r := 0; r < nRun; r++ {
					cells = append(cells, pageScenario(s, cfg.WifiMbps, cfg.LteMbps, runSeed("web-browsing", ci, r)))
				}
			}
		}
		return cells
	})
	fam.read(func(k int, out *PageOutcome) { outs[k] = out })
	return func() *WebBrowsingResult {
		groups := make([][]*PageOutcome, len(res.Schedulers)*nCfg)
		for k, out := range outs {
			// A nil outcome is a cell outside this run's shard; the
			// merge pass sees them all.
			if out != nil {
				groups[k/nRun] = append(groups[k/nRun], out)
			}
		}
		fill(res, groups)
		return res
	}
}

// Figure20 reports web object download completion-time CCDFs.
func Figure20(sc Scale) *WebBrowsingResult { return alone(sc, planFigure20) }

func planFigure20(p *Plan) func() *WebBrowsingResult {
	return planWebBrowsing(p, "Figure 20: Web Object Download Completion Time", func(r *WebBrowsingResult, groups [][]*PageOutcome) {
		r.Completions = make(map[string][]*metrics.CDF)
		for g, outs := range groups {
			var comp []float64
			for _, out := range outs {
				comp = append(comp, metrics.DurationsToSeconds(out.Completions)...)
			}
			s := r.Schedulers[g/len(r.Configs)]
			r.Completions[s] = append(r.Completions[s], metrics.NewCDF(comp))
		}
	})
}

// Figure21 reports web browsing OOO-delay CCDFs (same runs, other
// metric).
func Figure21(sc Scale) *WebBrowsingResult { return alone(sc, planFigure21) }

func planFigure21(p *Plan) func() *WebBrowsingResult {
	return planWebBrowsing(p, "Figure 21: Out-of-Order Delay - Web Browsing", func(r *WebBrowsingResult, groups [][]*PageOutcome) {
		r.OOO = make(map[string][]metrics.DelayDist)
		for g, outs := range groups {
			ooo := make([]metrics.DelayDist, len(outs))
			for i, out := range outs {
				ooo[i] = out.OOODelays
			}
			s := r.Schedulers[g/len(r.Configs)]
			r.OOO[s] = append(r.OOO[s], metrics.MergeDelayDists(ooo...))
		}
	})
}

// distribution is what a quantile table reads: a CDF or a DelayDist.
type distribution interface {
	Quantile(p float64) float64
	Mean() float64
}

// String renders quantile rows per config and scheduler.
func (r *WebBrowsingResult) String() string {
	var b strings.Builder
	b.WriteString(r.Figure + "\n")
	unit := "completion (s)"
	dist := func(s string, ci int) distribution { return r.Completions[s][ci] }
	if r.OOO != nil {
		unit = "OOO delay (s)"
		dist = func(s string, ci int) distribution { return r.OOO[s][ci] }
	}
	for ci, cfg := range r.Configs {
		fmt.Fprintf(&b, "(%s)\n", cfg.Label)
		t := &metrics.Table{Header: []string{"scheduler", "p50 " + unit, "p90", "p99", "mean"}}
		for _, s := range r.Schedulers {
			c := dist(s, ci)
			t.AddRow(s,
				fmt.Sprintf("%.3f", c.Quantile(0.5)),
				fmt.Sprintf("%.3f", c.Quantile(0.9)),
				fmt.Sprintf("%.3f", c.Quantile(0.99)),
				fmt.Sprintf("%.3f", c.Mean()))
		}
		b.WriteString(t.String())
	}
	return b.String()
}
