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

// Figure22Result is the §6.2 wild streaming study: nine runs sorted by
// WiFi RTT, default vs ECF average throughput.
type Figure22Result struct {
	Runs []trace.WildRun
	// WifiRTT/LteRTT are the mean measured RTTs per run (panel a).
	WifiRTT, LteRTT []time.Duration
	// Default/ECF are average per-chunk throughputs in Mbps (panel b).
	Default, ECF []float64
}

// wildStream runs one §6 streaming session with RTT jitter installed.
func wildStream(run trace.WildRun, scheduler string, videoSec float64) *StreamOutcome {
	return RunStreaming(StreamConfig{
		Paths:     run.Paths(),
		Scheduler: scheduler,
		VideoSec:  videoSec,
		PreRun: func(net *core.Network) {
			horizon := seconds(videoSec * 12)
			trace.InstallRTTJitter(net, 0, run.WifiRTT, 0.5, 500*time.Millisecond, run.Seed, horizon)
			trace.InstallRTTJitter(net, 1, run.LteRTT, 0.15, 500*time.Millisecond, run.Seed+99, horizon)
		},
	})
}

// Figure22 runs the nine wild streaming configurations under both
// schedulers — 18 independent sessions fanned across the worker pool.
func Figure22(sc Scale) *Figure22Result {
	runs := trace.WildStreamingRuns()
	res := &Figure22Result{
		Runs:    runs,
		WifiRTT: make([]time.Duration, len(runs)),
		LteRTT:  make([]time.Duration, len(runs)),
		Default: make([]float64, len(runs)),
		ECF:     make([]float64, len(runs)),
	}
	for i, run := range runs {
		res.WifiRTT[i] = run.WifiRTT
		res.LteRTT[i] = run.LteRTT
	}
	// Cell record: the session's average throughput. Seeds are part of
	// the wild run definitions (trace.WildStreamingRuns), fixed
	// topology data rather than per-job derivations.
	runCells(sc, sc.spec("fig22", 1, sc.videoKey()), len(runs)*2,
		func(k int) float64 {
			sched := "minrtt"
			if k%2 == 1 {
				sched = "ecf"
			}
			out := wildStream(runs[k/2], sched, sc.VideoSec)
			defer out.Release()
			return out.Result.AvgThroughputMbps()
		},
		func(k int, mbps float64) {
			if k%2 == 0 {
				res.Default[k/2] = mbps
			} else {
				res.ECF[k/2] = mbps
			}
		})
	return res
}

// MeanThroughput returns the across-run averages (paper: default 6.72,
// ECF 7.79 — a 16% improvement).
func (r *Figure22Result) MeanThroughput() (def, ecf float64) {
	return metrics.Summarize(r.Default).Mean, metrics.Summarize(r.ECF).Mean
}

// Improvement returns ECF's relative throughput gain.
func (r *Figure22Result) Improvement() float64 {
	def, ecf := r.MeanThroughput()
	if def <= 0 {
		return 0
	}
	return ecf/def - 1
}

// String renders both panels.
func (r *Figure22Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 22: Streaming Experiments in the Wild\n")
	t := &metrics.Table{Header: []string{"run", "WiFi RTT (ms)", "LTE RTT (ms)", "Default (Mbps)", "ECF (Mbps)"}}
	for i := range r.Runs {
		t.AddRow(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", r.WifiRTT[i].Milliseconds()),
			fmt.Sprintf("%d", r.LteRTT[i].Milliseconds()),
			fmt.Sprintf("%.2f", r.Default[i]),
			fmt.Sprintf("%.2f", r.ECF[i]))
	}
	b.WriteString(t.String())
	def, ecf := r.MeanThroughput()
	fmt.Fprintf(&b, "mean: default %.2f Mbps, ECF %.2f Mbps (%.0f%% improvement; paper: 16%%)\n",
		def, ecf, r.Improvement()*100)
	return b.String()
}

// Figure23Result is the §6.3 wild web study backing Figure 23 and
// Table 4: per scheduler, the object completion times and the OOO
// delays of all runs pooled.
type Figure23Result struct {
	Schedulers []string
	Completion map[string]*metrics.CDF
	OOO        map[string]metrics.DelayDist
}

// Figure23 fetches the CNN-like page over wild paths for both schedulers
// across sc.WildWebRuns runs.
func Figure23(sc Scale) *Figure23Result {
	res := &Figure23Result{
		Schedulers: []string{"minrtt", "ecf"},
		Completion: make(map[string]*metrics.CDF),
		OOO:        make(map[string]metrics.DelayDist),
	}
	runs := trace.WildWebRuns(sc.WildWebRuns)
	// One job per (scheduler, run) page fetch; aggregation walks the
	// outcomes in index order afterwards. Table 4 reads the same cell
	// family, so its pass is free once Figure 23's cells are cached.
	// v2: OOO delays are a packed metrics.DelayDist.
	outs := make([]*PageOutcome, len(res.Schedulers)*len(runs))
	runCells(sc, sc.spec("fig23", 2, sc.wildWebKey()), len(outs),
		func(k int) *PageOutcome {
			return wildPage(runs[k%len(runs)], res.Schedulers[k/len(runs)], (*core.Network).RunQuiet)
		},
		func(k int, out *PageOutcome) { outs[k] = out })
	for si, s := range res.Schedulers {
		var comp []float64
		var ooo []metrics.DelayDist
		for ri := range runs {
			out := outs[si*len(runs)+ri]
			if out == nil {
				// Cell outside this run's shard; the merge pass sees
				// them all.
				continue
			}
			comp = append(comp, metrics.DurationsToSeconds(out.Completions)...)
			ooo = append(ooo, out.OOODelays)
		}
		res.Completion[s] = metrics.NewCDF(comp)
		res.OOO[s] = metrics.MergeDelayDists(ooo...)
	}
	return res
}

// wildPage fetches the page once over one wild run's topology. The cell
// ends at quiescence (see webRun), ten virtual minutes at most — which is
// also how long the RTT jitter would otherwise keep ticking.
func wildPage(run trace.WildRun, scheduler string, drive webRun) *PageOutcome {
	const limit = 10 * time.Minute
	net := core.NewNetwork(run.Paths())
	defer net.Close()
	trace.InstallRTTJitter(net, 0, run.WifiRTT, 0.5, 500*time.Millisecond, run.Seed, limit)
	trace.InstallRTTJitter(net, 1, run.LteRTT, 0.15, 500*time.Millisecond, run.Seed+99, limit)
	conns := make([]*mptcp.Conn, 6)
	for i := range conns {
		conns[i] = net.NewConn(core.ConnOptions{Scheduler: scheduler})
	}
	var res *web.PageResult
	web.FetchPage(net.Engine(), conns, web.PageConfig{
		Objects:   web.CNNPageObjects(run.Seed),
		ThinkTime: 30 * time.Millisecond,
	}, func(r *web.PageResult) { res = r })
	quiet := drive(net, limit)
	mustComplete(res != nil, quiet, net, limit, "wild page fetch under %s, run %d (WiFi %g Mbps / %v, LTE %g Mbps / %v), seed %d",
		scheduler, run.Index, run.WifiMbps, run.WifiRTT, run.LteMbps, run.LteRTT, run.Seed)
	return newPageOutcome(res, conns)
}

// String renders the CCDF quantiles for both metrics.
func (r *Figure23Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 23: Web Browsing Comparison in the Wild\n")
	t := &metrics.Table{Header: []string{"scheduler", "completion p50 (s)", "p99", "mean", "OOO p50 (s)", "p99", "mean"}}
	for _, s := range r.Schedulers {
		c, o := r.Completion[s], r.OOO[s]
		t.AddRow(s,
			fmt.Sprintf("%.3f", c.Quantile(0.5)),
			fmt.Sprintf("%.3f", c.Quantile(0.99)),
			fmt.Sprintf("%.3f", c.Mean()),
			fmt.Sprintf("%.3f", o.Quantile(0.5)),
			fmt.Sprintf("%.3f", o.Quantile(0.99)),
			fmt.Sprintf("%.3f", o.Mean()))
	}
	b.WriteString(t.String())
	return b.String()
}
