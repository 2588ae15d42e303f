package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
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

// wildJitter is a §6 run's RTT jitter: both paths re-drawn every
// 500 ms until the given time, the public WiFi's by ±50 %, LTE's by
// ±15 %.
func wildJitter(run trace.WildRun, until time.Duration) [2]Jitter {
	return [2]Jitter{
		{Amplitude: 0.5, Interval: 500 * time.Millisecond, Until: until, Seed: run.Seed},
		{Amplitude: 0.15, Interval: 500 * time.Millisecond, Until: until, Seed: run.Seed + 99},
	}
}

// Figure22 runs the nine wild streaming configurations under both
// schedulers — 18 independent sessions fanned across the worker pool.
func Figure22(sc Scale) *Figure22Result { return alone(sc, planFigure22) }

func planFigure22(p *Plan) func() *Figure22Result {
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
	// Cell k streams over run k/2's paths, under the default scheduler
	// when k is even and ECF when it is odd; its record is the session's
	// average throughput. Seeds are part of the wild run definitions
	// (trace.WildStreamingRuns), fixed topology data rather than per-cell
	// derivations.
	fam := declare(p, "fig22", func(_ Scenario, out *Outcome) float64 {
		return out.Result.AvgThroughputMbps()
	}, func() []Scenario {
		var cells []Scenario
		for _, run := range runs {
			for _, sched := range []string{"minrtt", "ecf"} {
				s := Streaming(0, 0, sched, p.sc.VideoSec)
				s.Paths = [2]core.PathSpec(run.Paths())
				s.Jitter = wildJitter(run, seconds(p.sc.VideoSec*12))
				cells = append(cells, s)
			}
		}
		return cells
	})
	fam.read(func(k int, mbps float64) {
		if k%2 == 0 {
			res.Default[k/2] = mbps
		} else {
			res.ECF[k/2] = mbps
		}
	})
	return just(res)
}

// meanThroughput returns the across-run averages (the paper's are on the
// "fig22/improvement" claim).
func (r *Figure22Result) meanThroughput() (def, ecf float64) {
	return metrics.Summarize(r.Default).Mean, metrics.Summarize(r.ECF).Mean
}

// improvement returns ECF's relative throughput gain.
func (r *Figure22Result) improvement() float64 {
	def, ecf := r.meanThroughput()
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
	def, ecf := r.meanThroughput()
	fmt.Fprintf(&b, "mean: default %.2f Mbps, ECF %.2f Mbps (%.0f%% improvement; paper: %s)\n",
		def, ecf, r.improvement()*100, paperValue("fig22", "improvement"))
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
func Figure23(sc Scale) *Figure23Result { return alone(sc, planFigure23) }

func planFigure23(p *Plan) func() *Figure23Result {
	res := &Figure23Result{
		Schedulers: []string{"minrtt", "ecf"},
		Completion: make(map[string]*metrics.CDF),
		OOO:        make(map[string]metrics.DelayDist),
	}
	runs := trace.WildWebRuns(p.sc.WildWebRuns)
	// One cell per (scheduler, run) page fetch over the run's paths;
	// aggregation walks the outcomes in index order afterwards. Table 4
	// reads the same family.
	outs := make([]*PageOutcome, len(res.Schedulers)*len(runs))
	fam := declare(p, "fig23", pageRecord, func() []Scenario {
		var cells []Scenario
		for _, sched := range res.Schedulers {
			for _, run := range runs {
				cells = append(cells, wildPageScenario(run, sched))
			}
		}
		return cells
	})
	fam.read(func(k int, out *PageOutcome) { outs[k] = out })
	return func() *Figure23Result {
		for si, s := range res.Schedulers {
			var comp []float64
			var ooo []metrics.DelayDist
			for ri := range runs {
				out := outs[si*len(runs)+ri]
				if out == nil {
					// Cell outside this run's shard; the merge pass
					// sees them all.
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
}

// wildPageScenario fetches the page once over one §6.3 run's paths. The
// run ends at quiescence (see webRun), ten virtual minutes at most —
// which is also how long the RTT jitter would otherwise keep ticking.
func wildPageScenario(run trace.WildRun, scheduler string) Scenario {
	const limit = 10 * time.Minute
	return Scenario{
		Paths:     [2]core.PathSpec(run.Paths()),
		Scheduler: scheduler,
		Jitter:    wildJitter(run, limit),
		Workload:  Workload{Kind: workPage, PageSeed: run.Seed, Conns: 6},
		Limit:     limit,
	}
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
