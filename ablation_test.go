package repro

// Ablation benches for ECF's design choices (β, δ, the second-inequality
// guard, slow-start awareness) and for the idle-restart and congestion-
// control settings around it, on the paper's hot cell (0.3 Mbps WiFi,
// 8.6 Mbps LTE). Run with:
//
//	go test -bench=Ablation -benchtime 1x
//
// Each bench reports the bit-rate ratio or throughput of its variants
// via b.ReportMetric. The tables and figures themselves are timed by the
// ledger (go run ./benchmark, experiments.*.wall_ms) and printed by
// cmd/ecfbench.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dash"
	"repro/internal/experiments"
	"repro/internal/sched"
)

// benchVideoSec keeps individual benches in the seconds range while
// staying long enough for steady-state behaviour.
const benchVideoSec = 180

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
			s := experiments.Streaming(0.3, 8.6, schedName, benchVideoSec)
			on := s.Run()
			s.NoIdleRestart = true
			off := s.Run()
			b.ReportMetric(on.Result.AvgThroughputMbps(), schedName+"-reset-on-Mbps")
			b.ReportMetric(off.Result.AvgThroughputMbps(), schedName+"-reset-off-Mbps")
		}
	}
}

func BenchmarkAblationCongestionControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ccName := range []string{"lia", "olia", "reno"} {
			s := experiments.Streaming(0.3, 8.6, "ecf", benchVideoSec)
			s.CC = ccName
			out := s.Run()
			b.ReportMetric(out.Result.AvgThroughputMbps(), ccName+"-Mbps")
		}
	}
}

// runECFVariant streams the hot cell with a specific ECF instance, which
// no registry name can stand for, so it drives the network directly.
func runECFVariant(e *sched.ECF) float64 {
	net := core.NewNetwork(core.DefaultPaths(0.3, 8.6))
	defer net.Close()
	player := dash.NewPlayer(net.Engine(), net.NewConn(core.ConnOptions{SchedulerInstance: e}),
		dash.PlayerConfig{VideoSeconds: benchVideoSec})
	player.Start(nil)
	net.Run((benchVideoSec*12 + 300) * time.Second)
	return player.Result().AvgBitrateMbps() / dash.IdealBitrateMbps(8.9, dash.StandardLadder)
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
