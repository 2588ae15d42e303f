package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, plus ablation benches for the design choices called out in
// the design notes below. Run with:
//
//	go test -bench=. -benchmem
//
// Each bench executes the experiment at a bench-scale profile and reports
// the headline quantity of the corresponding artifact via b.ReportMetric,
// so a bench run doubles as a compact reproduction report. For the full
// printed tables use cmd/ecfbench.

import (
	"testing"

	"repro/internal/dash"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// benchScale keeps individual benches in the seconds range while staying
// long enough for steady-state behaviour.
var benchScale = experiments.Scale{
	VideoSec:        180,
	GridVideoSec:    60,
	RandomDurSec:    160,
	RandomScenarios: 5,
	WebRuns:         3,
	WildWebRuns:     9,
}

func BenchmarkTable1Ladder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table1()
		if len(r.Ladder) != 6 {
			b.Fatal("bad ladder")
		}
	}
}

func BenchmarkTable2RTT(b *testing.B) {
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(benchScale)
	}
	b.ReportMetric(float64(r.WifiRTT[0].Milliseconds()), "wifi-rtt@0.3Mbps-ms")
	b.ReportMetric(float64(r.WifiRTT[5].Milliseconds()), "wifi-rtt@8.6Mbps-ms")
	b.ReportMetric(float64(r.LteRTT[5].Milliseconds()), "lte-rtt@8.6Mbps-ms")
}

func BenchmarkTable3IWResets(b *testing.B) {
	var r *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table3(benchScale)
	}
	for i, s := range r.Schedulers {
		b.ReportMetric(float64(r.IWResets[i]), s+"-resets")
	}
}

func BenchmarkTable4WildWeb(b *testing.B) {
	var r *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table4(benchScale)
	}
	ci, oi := r.Improvement()
	b.ReportMetric(ci*100, "completion-improvement-%")
	b.ReportMetric(oi*100, "ooo-improvement-%")
}

func BenchmarkFigure1OnOff(b *testing.B) {
	var r *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure1(benchScale)
	}
	b.ReportMetric(float64(r.OffPeriods), "off-periods")
}

func BenchmarkFigure2DefaultHeatmap(b *testing.B) {
	var r *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure2(benchScale)
	}
	h := r.Grid.Heatmap()
	b.ReportMetric(h.Mean(), "mean-ratio")
	// The heterogeneous corner (0.3 WiFi, 8.6 LTE): row 5, col 0.
	b.ReportMetric(h.At(5, 0), "ratio@0.3/8.6")
}

func BenchmarkFigure3SendBuffer(b *testing.B) {
	var r *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure3(benchScale)
	}
	peaks := r.PeakBytes()
	b.ReportMetric(peaks[0]/1024, "wifi-peak-KB")
	b.ReportMetric(peaks[1]/1024, "lte-peak-KB")
}

func BenchmarkFigure5LastPacketDiff(b *testing.B) {
	var r *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure5(benchScale)
	}
	b.ReportMetric(r.Median(0).Seconds(), "median@0.3-8.6-s")
	b.ReportMetric(r.Median(3).Seconds(), "median@4.2-8.6-s")
}

func BenchmarkFigure6CwndReset(b *testing.B) {
	var r *experiments.Figure6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure6(benchScale)
	}
	// The 0.3/8.6 cell: WiFi index 0, LTE index 5.
	b.ReportMetric(r.WithReset.Cells[0][5].ThroughputMbps, "with-reset-Mbps")
	b.ReportMetric(r.NoReset.Cells[0][5].ThroughputMbps, "no-reset-Mbps")
}

func BenchmarkFigure7TrafficSplit(b *testing.B) {
	var r *experiments.Figure7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure7(benchScale)
	}
	c := r.Grid.Cells[0][5]
	b.ReportMetric(c.FastFraction, "default-frac@0.3/8.6")
	b.ReportMetric(c.IdealFraction, "ideal-frac@0.3/8.6")
}

func BenchmarkFigure9SchedulerHeatmaps(b *testing.B) {
	var r *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure9(benchScale)
	}
	for _, s := range r.Order {
		b.ReportMetric(r.MeanRatio(s), s+"-mean-ratio")
	}
}

func BenchmarkFigure10TrafficSplit(b *testing.B) {
	var r *experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure10(benchScale)
	}
	b.ReportMetric(r.ECF.Cells[0][5].FastFraction, "ecf-frac@0.3/8.6")
	b.ReportMetric(r.BLEST.Cells[0][5].FastFraction, "blest-frac@0.3/8.6")
}

func BenchmarkFigure11WifiCwnd(b *testing.B) {
	var r *experiments.CwndTraceResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure11(benchScale)
	}
	b.ReportMetric(r.MeanCwnd("minrtt"), "default-mean-cwnd")
	b.ReportMetric(r.MeanCwnd("ecf"), "ecf-mean-cwnd")
}

func BenchmarkFigure12LteCwnd(b *testing.B) {
	var r *experiments.CwndTraceResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure12(benchScale)
	}
	b.ReportMetric(r.MeanCwnd("minrtt"), "default-mean-cwnd")
	b.ReportMetric(r.MeanCwnd("ecf"), "ecf-mean-cwnd")
}

func BenchmarkFigure13OooDefault(b *testing.B) {
	var r *experiments.Figure13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure13(benchScale)
	}
	b.ReportMetric(r.CDFs[0].Mean(), "mean-ooo@0.3-8.6-s")
	b.ReportMetric(r.CDFs[3].Mean(), "mean-ooo@4.2-8.6-s")
}

func BenchmarkFigure14OooSchedulers(b *testing.B) {
	var r *experiments.Figure14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure14(benchScale)
	}
	for _, s := range r.Heterogeneous.Schedulers {
		b.ReportMetric(r.Heterogeneous.CDFs[s].Mean(), s+"-mean-ooo-s")
	}
}

func BenchmarkFigure15FourSubflows(b *testing.B) {
	var r *experiments.Figure15Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure15(benchScale)
	}
	b.ReportMetric(r.DefaultRatio[5], "default-ratio@0.3/8.6")
	b.ReportMetric(r.ECFRatio[5], "ecf-ratio@0.3/8.6")
}

func BenchmarkFigure16RandomBandwidth(b *testing.B) {
	var r *experiments.Figure16Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure16(benchScale)
	}
	for _, s := range r.Schedulers {
		b.ReportMetric(r.MeanThroughput(s), s+"-Mbps")
	}
}

func BenchmarkFigure17ChunkTrace(b *testing.B) {
	var r *experiments.Figure17Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure17(benchScale)
	}
	b.ReportMetric(float64(len(r.ECF)), "chunks")
}

func BenchmarkFigure18Wget(b *testing.B) {
	var r *experiments.Figure18Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure18(benchScale)
	}
	// 512 KB at LTE 10 Mbps (index 9), the paper's headline wget case.
	b.ReportMetric(r.Mean[512<<10]["minrtt"][9], "default-512KB@1-10-s")
	b.ReportMetric(r.Mean[512<<10]["ecf"][9], "ecf-512KB@1-10-s")
}

func BenchmarkFigure19WgetRatio(b *testing.B) {
	var r *experiments.Figure19Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure19(benchScale)
	}
	b.ReportMetric(float64(r.WorseCells()), "ecf-worse-cells")
}

func BenchmarkFigure20WebCompletion(b *testing.B) {
	var r *experiments.WebBrowsingResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure20(benchScale)
	}
	// Config 2: 1.0 Mbps WiFi / 10.0 Mbps LTE — p99 per scheduler.
	for _, s := range r.Schedulers {
		b.ReportMetric(r.Completions[s][2].Quantile(0.99), s+"-p99-s")
	}
}

func BenchmarkFigure21WebOoo(b *testing.B) {
	var r *experiments.WebBrowsingResult
	for i := 0; i < b.N; i++ {
		r = experiments.Figure21(benchScale)
	}
	for _, s := range r.Schedulers {
		b.ReportMetric(r.OOO[s][2].Mean(), s+"-mean-ooo-s")
	}
}

func BenchmarkFigure22WildStreaming(b *testing.B) {
	sc := benchScale
	sc.VideoSec = 120
	var r *experiments.Figure22Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure22(sc)
	}
	def, ecf := r.MeanThroughput()
	b.ReportMetric(def, "default-Mbps")
	b.ReportMetric(ecf, "ecf-Mbps")
}

func BenchmarkFigure23WildWeb(b *testing.B) {
	var r *experiments.Figure23Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure23(benchScale)
	}
	b.ReportMetric(r.MeanCompletion["minrtt"].Seconds(), "default-completion-s")
	b.ReportMetric(r.MeanCompletion["ecf"].Seconds(), "ecf-completion-s")
}

// --- Ablation benches (design-choice studies) ---

func BenchmarkAblationBeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, beta := range []float64{0, 0.25, 1.0} {
			beta := beta
			e := sched.NewECF()
			e.Beta = beta
			ratio := runECFVariant(e)
			b.ReportMetric(ratio, "ratio-beta-"+ftoa(beta))
		}
	}
}

func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := sched.NewECF()
		off := sched.NewECF()
		off.UseDelta = false
		b.ReportMetric(runECFVariant(on), "ratio-delta-on")
		b.ReportMetric(runECFVariant(off), "ratio-delta-off")
	}
}

func BenchmarkAblationGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := sched.NewECF()
		off := sched.NewECF()
		off.UseGuard = false
		b.ReportMetric(runECFVariant(on), "ratio-guard-on")
		b.ReportMetric(runECFVariant(off), "ratio-guard-off")
	}
}

func BenchmarkAblationSlowStartAware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := sched.NewECF()
		aware := sched.NewECF()
		aware.SlowStartAware = true
		b.ReportMetric(runECFVariant(plain), "ratio-plain")
		b.ReportMetric(runECFVariant(aware), "ratio-ss-aware")
	}
}

func BenchmarkAblationIdleRestart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, schedName := range []string{"minrtt", "ecf"} {
			on := experiments.RunStreaming(experiments.StreamConfig{
				WifiMbps: 0.3, LteMbps: 8.6, Scheduler: schedName, VideoSec: benchScale.VideoSec,
			})
			off := experiments.RunStreaming(experiments.StreamConfig{
				WifiMbps: 0.3, LteMbps: 8.6, Scheduler: schedName, VideoSec: benchScale.VideoSec,
				DisableIdleRestart: true,
			})
			b.ReportMetric(on.Result.AvgThroughputMbps(), schedName+"-reset-on-Mbps")
			b.ReportMetric(off.Result.AvgThroughputMbps(), schedName+"-reset-off-Mbps")
		}
	}
}

func BenchmarkAblationCongestionControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ccName := range []string{"lia", "olia", "reno"} {
			out := experiments.RunStreaming(experiments.StreamConfig{
				WifiMbps: 0.3, LteMbps: 8.6, Scheduler: "ecf", CC: ccName,
				VideoSec: benchScale.VideoSec,
			})
			b.ReportMetric(out.Result.AvgThroughputMbps(), ccName+"-Mbps")
		}
	}
}

// runECFVariant streams the hot cell with a specific ECF instance.
func runECFVariant(e *sched.ECF) float64 {
	out := experiments.RunStreaming(experiments.StreamConfig{
		WifiMbps: 0.3, LteMbps: 8.6,
		SchedulerInstance: e,
		VideoSec:          benchScale.VideoSec,
	})
	return out.Result.AvgBitrateMbps() / dash.IdealBitrateMbps(8.9, dash.StandardLadder)
}

// --- Micro-benches for the substrate itself ---

func BenchmarkSubstrateStreamingCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunStreaming(experiments.StreamConfig{
			WifiMbps: 4.2, LteMbps: 8.6, Scheduler: "ecf", VideoSec: 60,
		})
	}
}

func BenchmarkSubstrateOOOCDF(b *testing.B) {
	out := experiments.RunStreaming(experiments.StreamConfig{
		WifiMbps: 0.3, LteMbps: 8.6, Scheduler: "minrtt", VideoSec: 60,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := metrics.NewDelayDist(out.OOODelays).CDF()
		_ = c.Quantile(0.99)
	}
}

func ftoa(f float64) string {
	switch f {
	case 0:
		return "0"
	case 0.25:
		return "0.25"
	case 1.0:
		return "1.0"
	default:
		return "x"
	}
}
