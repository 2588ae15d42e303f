package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/trace"
	"repro/internal/web"
)

// webLossRate adds light random loss to the §5.4/§5.5 experiments so
// that repeated runs (different seeds) produce the run-to-run variance
// the paper's error bars and stddev-based normalization rely on.
const webLossRate = 0.001

// wgetSizes are the transfer sizes of Figure 18.
var wgetSizes = []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20}

// webRun drives a web cell's network once its transfers are set up and
// reports whether the network went quiet before the virtual-time limit.
// The cell bodies run (*core.Network).RunQuiet: a web cell's result is
// fixed the moment its last packet is handled, and the only events
// pending after that are RTT-jitter ticks setting a delay nothing will
// read, so running on to the limit — as the bodies once did — buys
// thousands of dispatches and no output. Tests pass other drives (a
// horizon run as reference, a lossy network).
type webRun func(net *core.Network, limit time.Duration) bool

// mustComplete panics when a web cell's run ended without its completion
// callback having fired: a silent zero would drag a mean down unnoticed,
// and the runner reports a cell panic with the cell's name.
func mustComplete(done, quiet bool, net *core.Network, limit time.Duration, format string, args ...any) {
	if done {
		return
	}
	how := fmt.Sprintf("the %v cap was reached", limit)
	if quiet {
		how = fmt.Sprintf("the network went quiet at %v", net.Now())
	}
	panic(fmt.Sprintf("experiments: "+format+" never completed: %s", append(args, how)...))
}

// wgetOnce downloads one object and returns its completion time. Each
// run perturbs both paths' propagation delays with a seeded random walk,
// reproducing the run-to-run variance a physical testbed shows (the
// paper's Figure 19 normalization clamps differences inside the combined
// standard deviation to 1.0, which only makes sense with real variance).
// The cell ends at quiescence (see webRun), five virtual minutes at most.
func wgetOnce(scheduler string, wifiMbps, lteMbps float64, bytes int64, seed uint64, run webRun) time.Duration {
	net := core.NewNetwork([]core.PathSpec{
		{Name: "wifi", RateMbps: wifiMbps, BaseRTT: core.WiFiBaseRTT, LossRate: webLossRate, Seed: seed * 17},
		{Name: "lte", RateMbps: lteMbps, BaseRTT: core.LTEBaseRTT, LossRate: webLossRate, Seed: seed*31 + 7},
	})
	defer net.Close()
	trace.InstallRTTJitter(net, 0, core.WiFiBaseRTT, 0.3, 100*time.Millisecond, seed*101+1, time.Minute)
	trace.InstallRTTJitter(net, 1, core.LTEBaseRTT, 0.2, 100*time.Millisecond, seed*211+5, time.Minute)
	conn := net.NewConn(core.ConnOptions{Scheduler: scheduler})
	var dur time.Duration
	done := false
	web.Download(conn, bytes, func(o web.ObjectResult) { dur, done = o.Duration(), true })
	const limit = 5 * time.Minute
	quiet := run(net, limit)
	mustComplete(done, quiet, net, limit, "wget of %d bytes under %s at %g/%g Mbps, seed %d", bytes, scheduler, wifiMbps, lteMbps, seed)
	return dur
}

// wgetStats runs N repetitions and summarizes. Per-run seeds derive
// from (seedExp, seedCell, run) via runSeed; callers comparing
// schedulers pass a seedCell that excludes the scheduler so both sides
// see identical network randomness (the paper's paired design, which
// Figure 19's stddev normalization depends on).
func wgetStats(scheduler string, wifiMbps, lteMbps float64, bytes int64, runs int, seedExp string, seedCell int) metrics.Summary {
	var xs []float64
	for r := 0; r < runs; r++ {
		d := wgetOnce(scheduler, wifiMbps, lteMbps, bytes, runSeed(seedExp, seedCell, r), (*core.Network).RunQuiet)
		xs = append(xs, d.Seconds())
	}
	return metrics.Summarize(xs)
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
func Figure18(sc Scale) *Figure18Result {
	res := &Figure18Result{
		Sizes:         wgetSizes,
		LteBandwidths: trace.WebBandwidthsMbps,
		Schedulers:    []string{"minrtt", "daps", "blest", "ecf"},
		Mean:          make(map[int64]map[string][]float64),
	}
	for _, size := range res.Sizes {
		res.Mean[size] = make(map[string][]float64)
		for _, s := range res.Schedulers {
			res.Mean[size][s] = make([]float64, len(res.LteBandwidths))
		}
	}
	// Cell record: the full completion-time summary (the figure prints
	// the mean; the spread stays available to cache consumers). v2:
	// seeds namespaced via runSeed, paired across schedulers.
	nSch, nLte := len(res.Schedulers), len(res.LteBandwidths)
	runCells(sc, sc.spec("fig18", 2, sc.webKey()), len(res.Sizes)*nSch*nLte,
		func(k int) metrics.Summary {
			size := res.Sizes[k/(nSch*nLte)]
			s := res.Schedulers[k/nLte%nSch]
			li := k % nLte
			seedCell := k/(nSch*nLte)*nLte + li // (size, lte): scheduler-independent
			return wgetStats(s, 1, res.LteBandwidths[li], size, sc.WebRuns, "fig18", seedCell)
		},
		func(k int, sum metrics.Summary) {
			size := res.Sizes[k/(nSch*nLte)]
			s := res.Schedulers[k/nLte%nSch]
			res.Mean[size][s][k%nLte] = sum.Mean
		})
	return res
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
// 10×10 grid, per size. Following the paper, cells whose difference is
// within one standard deviation are clamped to 1.0.
type Figure19Result struct {
	Sizes []int64
	Maps  map[int64]*metrics.Heatmap
}

// Figure19 computes normalized completion-time ratios.
func Figure19(sc Scale) *Figure19Result {
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
	// One job per (size, wifi, lte) cell; each writes its own
	// pre-allocated heat-map slot. The cell record keeps both
	// schedulers' summaries so the normalization stays recomputable
	// from cache. v2: seeds namespaced via runSeed, shared by both
	// schedulers within a cell (paired runs).
	nBW := len(trace.WebBandwidthsMbps)
	runCells(sc, sc.spec("fig19", 2, sc.webKey()), len(res.Sizes)*nBW*nBW,
		func(k int) wgetPair {
			size := res.Sizes[k/(nBW*nBW)]
			wifi := trace.WebBandwidthsMbps[k/nBW%nBW]
			lte := trace.WebBandwidthsMbps[k%nBW]
			return wgetPair{
				Def: wgetStats("minrtt", wifi, lte, size, sc.WebRuns, "fig19", k),
				ECF: wgetStats("ecf", wifi, lte, size, sc.WebRuns, "fig19", k),
			}
		},
		func(k int, p wgetPair) {
			size := res.Sizes[k/(nBW*nBW)]
			ratio := 1.0
			diff := p.Def.Mean - p.ECF.Mean
			band := p.Def.StdDev + p.ECF.StdDev
			if diff > band || diff < -band {
				if p.Def.Mean > 0 {
					ratio = p.ECF.Mean / p.Def.Mean
				}
			}
			res.Maps[size].Set(k%nBW, k/nBW%nBW, ratio)
		})
	return res
}

// wgetPair is the cached record of one Figure 19 cell: both schedulers'
// completion summaries under shared per-run seeds.
type wgetPair struct {
	Def metrics.Summary
	ECF metrics.Summary
}

// WorseCells counts cells where ECF is slower than default beyond the
// noise band — the paper reports zero.
func (r *Figure19Result) WorseCells() int {
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
	fmt.Fprintf(&b, "cells where ECF does worse: %d (paper: none)\n", r.WorseCells())
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

// newPageOutcome gathers the telemetry of one finished page fetch.
func newPageOutcome(res *web.PageResult, conns []*mptcp.Conn) *PageOutcome {
	out := &PageOutcome{Completions: res.CompletionTimes()}
	var ooo []time.Duration
	for _, c := range conns {
		ooo = append(ooo, c.Receiver().OOODelays()...)
	}
	out.OOODelays = metrics.NewDelayDist(ooo)
	return out
}

// fetchCNNPage runs one browsing session: 107 objects over six parallel
// persistent MPTCP connections (twelve subflows). The cell ends at
// quiescence (see webRun), ten virtual minutes at most.
func fetchCNNPage(scheduler string, wifiMbps, lteMbps float64, seed uint64, run webRun) *PageOutcome {
	net := core.NewNetwork([]core.PathSpec{
		{Name: "wifi", RateMbps: wifiMbps, BaseRTT: core.WiFiBaseRTT, LossRate: webLossRate, Seed: seed * 13},
		{Name: "lte", RateMbps: lteMbps, BaseRTT: core.LTEBaseRTT, LossRate: webLossRate, Seed: seed*29 + 3},
	})
	defer net.Close()
	conns := make([]*mptcp.Conn, 6)
	for i := range conns {
		conns[i] = net.NewConn(core.ConnOptions{Scheduler: scheduler})
	}
	var res *web.PageResult
	web.FetchPage(net.Engine(), conns, web.PageConfig{
		Objects:   web.CNNPageObjects(seed),
		ThinkTime: 30 * time.Millisecond,
	}, func(r *web.PageResult) { res = r })
	const limit = 10 * time.Minute
	quiet := run(net, limit)
	mustComplete(res != nil, quiet, net, limit, "page fetch under %s at %g/%g Mbps, seed %d", scheduler, wifiMbps, lteMbps, seed)
	return newPageOutcome(res, conns)
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

// runWebBrowsing runs sc.WebRuns sessions per (scheduler, config) and
// returns, scheduler-major, each pair's outcomes in run order.
func runWebBrowsing(sc Scale, figure string) (*WebBrowsingResult, [][]*PageOutcome) {
	res := &WebBrowsingResult{
		Figure:     figure,
		Configs:    figure20Configs,
		Schedulers: []string{"minrtt", "daps", "blest", "ecf"},
	}
	// Fan every (scheduler, config, run) session out as its own job,
	// then group in index order so the distributions see samples in the
	// same sequence regardless of worker count. Both Figure 20 and
	// Figure 21 read from the same cell family ("web-browsing"), so one
	// pass serves both. v2: seeds namespaced via runSeed per (config,
	// run), shared across schedulers (paired sessions). v3: OOO delays
	// are a packed metrics.DelayDist.
	nCfg, nRun := len(res.Configs), sc.WebRuns
	outs := make([]*PageOutcome, len(res.Schedulers)*nCfg*nRun)
	runCells(sc, sc.spec("web-browsing", 3, sc.webKey()), len(outs),
		func(k int) *PageOutcome {
			s := res.Schedulers[k/(nCfg*nRun)]
			ci := k / nRun % nCfg
			cfg := res.Configs[ci]
			return fetchCNNPage(s, cfg.WifiMbps, cfg.LteMbps, runSeed("web-browsing", ci, k%nRun), (*core.Network).RunQuiet)
		},
		func(k int, out *PageOutcome) { outs[k] = out })
	groups := make([][]*PageOutcome, len(res.Schedulers)*nCfg)
	for k, out := range outs {
		// A nil outcome is a cell outside this run's shard; the merge
		// pass sees them all.
		if out != nil {
			groups[k/nRun] = append(groups[k/nRun], out)
		}
	}
	return res, groups
}

// Figure20 reports web object download completion-time CCDFs.
func Figure20(sc Scale) *WebBrowsingResult {
	r, groups := runWebBrowsing(sc, "Figure 20: Web Object Download Completion Time")
	r.Completions = make(map[string][]*metrics.CDF)
	for g, outs := range groups {
		var comp []float64
		for _, out := range outs {
			comp = append(comp, metrics.DurationsToSeconds(out.Completions)...)
		}
		s := r.Schedulers[g/len(r.Configs)]
		r.Completions[s] = append(r.Completions[s], metrics.NewCDF(comp))
	}
	return r
}

// Figure21 reports web browsing OOO-delay CCDFs (same runs, other
// metric).
func Figure21(sc Scale) *WebBrowsingResult {
	r, groups := runWebBrowsing(sc, "Figure 21: Out-of-Order Delay - Web Browsing")
	r.OOO = make(map[string][]metrics.DelayDist)
	for g, outs := range groups {
		ooo := make([]metrics.DelayDist, len(outs))
		for i, out := range outs {
			ooo[i] = out.OOODelays
		}
		s := r.Schedulers[g/len(r.Configs)]
		r.OOO[s] = append(r.OOO[s], metrics.MergeDelayDists(ooo...))
	}
	return r
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
