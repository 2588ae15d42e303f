package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTable1MatchesPaper(t *testing.T) {
	r := Table1()
	s := r.String()
	for _, want := range []string{"144p", "1080p", "0.26", "8.47"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestTable2RTTShape(t *testing.T) {
	r := Table2(Quick)
	// RTT must decrease monotonically with bandwidth (Table 2's shape).
	for i := 1; i < len(r.BandwidthsMbps); i++ {
		if r.WifiRTT[i] >= r.WifiRTT[i-1] {
			t.Fatalf("WiFi RTT not decreasing: %v", r.WifiRTT)
		}
		if r.LteRTT[i] >= r.LteRTT[i-1] {
			t.Fatalf("LTE RTT not decreasing: %v", r.LteRTT)
		}
	}
	// 0.3 Mbps should show ~1 s bufferbloat (paper: WiFi 969 ms).
	if r.WifiRTT[0] < 500*time.Millisecond || r.WifiRTT[0] > 2*time.Second {
		t.Fatalf("WiFi RTT at 0.3 Mbps = %v, want ~1 s", r.WifiRTT[0])
	}
	// 8.6 Mbps should be within a few 10s of ms of the base RTT
	// (paper: WiFi 40 ms, LTE 105 ms).
	if r.WifiRTT[5] > 100*time.Millisecond {
		t.Fatalf("WiFi RTT at 8.6 Mbps = %v, want < 100 ms", r.WifiRTT[5])
	}
	if r.LteRTT[5] > 180*time.Millisecond {
		t.Fatalf("LTE RTT at 8.6 Mbps = %v, want < 180 ms", r.LteRTT[5])
	}
}

func TestRunStreamingBasics(t *testing.T) {
	out := Streaming(4.2, 4.2, "ecf", 40).Run()
	if !out.Finished {
		t.Fatal("streaming run did not finish")
	}
	if out.FastFraction <= 0 || out.FastFraction > 1 {
		t.Fatalf("fast fraction = %v", out.FastFraction)
	}
	if out.IdealFraction != 0.5 {
		t.Fatalf("ideal fraction = %v for symmetric pair, want 0.5", out.IdealFraction)
	}
	if len(out.OOODelays) == 0 {
		t.Fatal("no OOO samples")
	}
}

func TestRunStreamingSamplesTraces(t *testing.T) {
	s := Streaming(0.3, 8.6, "minrtt", 30)
	s.Workload.SampleInterval = 100 * time.Millisecond
	out := s.Run()
	if len(out.CwndTraces) != 2 || len(out.SndbufTraces) != 2 {
		t.Fatalf("trace counts = %d/%d, want 2/2", len(out.CwndTraces), len(out.SndbufTraces))
	}
	if out.CwndTraces[0].Len() < 50 {
		t.Fatalf("cwnd trace too short: %d points", out.CwndTraces[0].Len())
	}
	if out.SubflowNames[0] != "wifi" || out.SubflowNames[1] != "lte" {
		t.Fatalf("subflow names = %v", out.SubflowNames)
	}
}

func TestFigure2HeterogeneityHurtsDefault(t *testing.T) {
	// Mini-grid assertion at test scale: the symmetric high-bandwidth
	// cell must score (much) better than the extreme heterogeneous cell.
	sym := Streaming(8.6, 8.6, "minrtt", Quick.VideoSec).Run()
	het := Streaming(0.3, 8.6, "minrtt", Quick.VideoSec).Run()
	symRatio := sym.Result.AvgBitrateMbps() / 8.47
	hetRatio := het.Result.AvgBitrateMbps() / 8.47
	if hetRatio >= symRatio {
		t.Fatalf("default: heterogeneous ratio %.2f >= symmetric %.2f — motivation effect missing", hetRatio, symRatio)
	}
}

func TestFigure9ECFBeatsDefaultAtHotCells(t *testing.T) {
	// The paper's headline: at 0.3/8.6 ECF's ratio clearly exceeds the
	// default's, while at 8.6/8.6 they tie. Uses a longer playout to get
	// past ABR warm-up.
	defHet := Streaming(0.3, 8.6, "minrtt", 180).Run()
	ecfHet := Streaming(0.3, 8.6, "ecf", 180).Run()
	dr := defHet.Result.AvgBitrateMbps() / 8.47
	er := ecfHet.Result.AvgBitrateMbps() / 8.47
	if er <= dr {
		t.Fatalf("ECF ratio %.2f <= default %.2f at 0.3/8.6", er, dr)
	}
	if er-dr < 0.08 {
		t.Fatalf("ECF improvement %.2f too small at the hot cell", er-dr)
	}
	defSym := Streaming(8.6, 8.6, "minrtt", 180).Run()
	ecfSym := Streaming(8.6, 8.6, "ecf", 180).Run()
	ds := defSym.Result.AvgBitrateMbps()
	es := ecfSym.Result.AvgBitrateMbps()
	if es < ds*0.95 {
		t.Fatalf("ECF %.2f worse than default %.2f on symmetric paths", es, ds)
	}
}

func TestTable3ECFFewestResets(t *testing.T) {
	r := Table3(Quick)
	byName := map[string]int64{}
	for i, s := range r.Schedulers {
		byName[s] = r.IWResets[i]
	}
	if byName["ecf"] > byName["minrtt"] {
		t.Fatalf("ECF resets %d > default %d (paper: 16 vs 486)", byName["ecf"], byName["minrtt"])
	}
	if !strings.Contains(r.String(), "IW Resets") {
		t.Fatal("render missing title")
	}
}

func TestFigure5DiffsGrowWithHeterogeneity(t *testing.T) {
	r := Figure5(Quick)
	// Median last-packet diff at 0.3-8.6 must exceed the 4.2-8.6 one.
	if r.Median(0) <= r.Median(3) {
		t.Fatalf("last-packet diff medians: 0.3-8.6 %v <= 4.2-8.6 %v", r.Median(0), r.Median(3))
	}
}

func TestFigure14ECFLowestOOO(t *testing.T) {
	r := Figure14(Quick)
	het := r.Heterogeneous
	if het.Delays["ecf"].Mean() > het.Delays["minrtt"].Mean() {
		t.Fatalf("ECF mean OOO %.4f > default %.4f under heterogeneity",
			het.Delays["ecf"].Mean(), het.Delays["minrtt"].Mean())
	}
	// Symmetric: all schedulers close (DAPS excepted by the paper);
	// assert ECF does not blow up relative to default.
	sym := r.Symmetric
	if sym.Delays["ecf"].Mean() > sym.Delays["minrtt"].Mean()*2+0.01 {
		t.Fatalf("symmetric: ECF OOO %.4f much worse than default %.4f",
			sym.Delays["ecf"].Mean(), sym.Delays["minrtt"].Mean())
	}
}

func TestFigure16ECFHighestMeanThroughput(t *testing.T) {
	// Scenarios short enough for CI but long enough that heterogeneous
	// phases dominate warm-up noise.
	sc := Scale{RandomDurSec: 160, RandomScenarios: 4}
	r := Figure16(sc)
	if r.meanThroughput("ecf") < r.meanThroughput("minrtt") {
		t.Fatalf("random-bandwidth: ECF %.2f < default %.2f",
			r.meanThroughput("ecf"), r.meanThroughput("minrtt"))
	}
	if len(r.Throughput["ecf"]) != sc.RandomScenarios {
		t.Fatalf("scenario count = %d", len(r.Throughput["ecf"]))
	}
}

func TestFigure17SeriesPresent(t *testing.T) {
	r := Figure17(Quick)
	if len(r.Default) == 0 || len(r.ECF) == 0 {
		t.Fatal("empty chunk traces")
	}
	if !strings.Contains(r.String(), "Per-chunk") {
		t.Fatal("render missing title")
	}
}

func TestWgetECFNotWorse(t *testing.T) {
	// 512 KB at 1/10 Mbps: ECF should be at least as fast as default
	// (paper: ~13-20% faster).
	def := wgetSummary(wgetScenario("minrtt", 1, 10, 512<<10, 3, "test-wget", 0).Run())
	ecf := wgetSummary(wgetScenario("ecf", 1, 10, 512<<10, 3, "test-wget", 0).Run())
	if ecf.Mean > def.Mean*1.05 {
		t.Fatalf("wget: ECF %.3fs worse than default %.3fs", ecf.Mean, def.Mean)
	}
}

func TestWgetSmallSizeParity(t *testing.T) {
	// 128 KB transfers: schedulers should be statistically similar
	// (paper Figure 19a is all white).
	def := wgetSummary(wgetScenario("minrtt", 1, 5, 128<<10, 3, "test-wget", 1).Run())
	ecf := wgetSummary(wgetScenario("ecf", 1, 5, 128<<10, 3, "test-wget", 1).Run())
	if diff := ecf.Mean - def.Mean; diff > def.StdDev+ecf.StdDev+0.2 {
		t.Fatalf("128KB: ECF %.3fs vs default %.3fs beyond noise", ecf.Mean, def.Mean)
	}
}

func TestFigure22WildShapes(t *testing.T) {
	sc := Quick
	sc.VideoSec = 40
	r := Figure22(sc)
	if len(r.Default) != 9 || len(r.ECF) != 9 {
		t.Fatalf("run counts: %d/%d", len(r.Default), len(r.ECF))
	}
	// The paper reports ECF 16 % above default in the wild (6.72 → 7.79
	// Mbps). The synthetic wild paths reproduce the per-run RTT spread,
	// but ECF lands about 4 % below default in the catalog at quick and
	// at full scale (5.65 → 5.45 and 6.63 → 6.33 Mbps), and about 2 %
	// below at this test's 40 s clip: the claim comes out reversed, and
	// its cause is open in ROADMAP.md's item on the reversed claims.
	// The bound asserts only that ECF loses no more than 15 %.
	def, ecf := r.meanThroughput()
	if ecf < def*0.85 {
		t.Fatalf("wild streaming: ECF mean %.2f far below default %.2f", ecf, def)
	}
	// Run 1 (symmetric RTTs) should be near parity.
	if r.ECF[0] < r.Default[0]*0.85 {
		t.Fatalf("run 1 should be near parity: ecf %.2f vs def %.2f", r.ECF[0], r.Default[0])
	}
}

func TestFigure23AndTable4(t *testing.T) {
	sc := Quick
	r := Table4(sc)
	ci, oi := r.improvement()
	if ci < -0.10 {
		t.Fatalf("wild web: ECF completion %.0f%% worse", -ci*100)
	}
	if oi < -0.15 {
		t.Fatalf("wild web: ECF OOO delay much worse (%.0f%%)", -oi*100)
	}
	if !strings.Contains(r.String(), "ECF Improvement") {
		t.Fatal("render missing improvement row")
	}
}

func TestFigure1OnOffPattern(t *testing.T) {
	r := Figure1(Quick)
	if len(r.Trace) == 0 {
		t.Fatal("no download trace")
	}
	if r.OffPeriods == 0 {
		t.Fatal("no OFF periods detected — the §2.2 pattern is missing")
	}
	// Cumulative bytes must be non-decreasing.
	for i := 1; i < len(r.Trace); i++ {
		if r.Trace[i].Bytes < r.Trace[i-1].Bytes {
			t.Fatal("download trace not monotone")
		}
	}
}

func TestFigure3BuffersTracked(t *testing.T) {
	r := Figure3(Quick)
	peaks := r.peakBytes()
	if len(peaks) != 2 {
		t.Fatalf("peaks = %v", peaks)
	}
	if peaks[0] == 0 || peaks[1] == 0 {
		t.Fatalf("send buffers never occupied: %v", peaks)
	}
	// LTE (fast) peak occupancy should far exceed WiFi's.
	if peaks[1] < peaks[0] {
		t.Fatalf("LTE peak %v < WiFi peak %v, expected the fast path to hold more in flight", peaks[1], peaks[0])
	}
}

func TestFigure11And12CwndMeans(t *testing.T) {
	sc := Quick
	r12 := Figure12(sc)
	// Figure 12's claim: ECF sustains a larger LTE window than default.
	if r12.meanCwnd("ecf") <= r12.meanCwnd("minrtt") {
		t.Fatalf("LTE mean cwnd: ecf %.1f <= default %.1f",
			r12.meanCwnd("ecf"), r12.meanCwnd("minrtt"))
	}
	r11 := Figure11(sc)
	// Figure 11's claim: ECF uses the WiFi (slow) subflow less.
	if r11.meanCwnd("ecf") > r11.meanCwnd("minrtt")*1.5 {
		t.Fatalf("WiFi mean cwnd: ecf %.1f much larger than default %.1f",
			r11.meanCwnd("ecf"), r11.meanCwnd("minrtt"))
	}
}

func TestFigure15FourSubflows(t *testing.T) {
	sc := Quick
	r := Figure15(sc)
	if len(r.DefaultRatio) != 6 || len(r.ECFRatio) != 6 {
		t.Fatalf("lengths: %d/%d", len(r.DefaultRatio), len(r.ECFRatio))
	}
	// At the most heterogeneous point (0.3 WiFi, 8.6 LTE), ECF ≥ default.
	if r.ECFRatio[5] < r.DefaultRatio[5]*0.95 {
		t.Fatalf("4-subflow 0.3/8.6: ecf %.2f < default %.2f", r.ECFRatio[5], r.DefaultRatio[5])
	}
}

func TestGridRendering(t *testing.T) {
	g := ecfGrid(Scale{GridVideoSec: 15})
	h := g.heatmap()
	s := h.String() + h.Shade()
	if !strings.Contains(s, "ecf") {
		t.Fatalf("heatmap render missing scheduler name:\n%s", s)
	}
	for i := range g.Bandwidths {
		for j := range g.Bandwidths {
			v := g.Cells[i][j].BitrateRatio
			if v < 0 || v > 1 {
				t.Fatalf("ratio out of range at %d,%d: %v", i, j, v)
			}
		}
	}
}
