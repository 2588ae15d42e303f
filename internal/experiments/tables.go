package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dash"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Table1Result reproduces paper Table 1 (bit rate per resolution). It is
// static data, included so the harness covers every numbered artifact.
type Table1Result struct {
	Ladder []dash.Representation
}

// Table1 returns the representation ladder.
func Table1() *Table1Result {
	return &Table1Result{Ladder: dash.StandardLadder}
}

// String renders the paper's row pair.
func (r *Table1Result) String() string {
	var names, rates []string
	for _, rep := range r.Ladder {
		names = append(names, fmt.Sprintf("%6s", rep.Name))
		rates = append(rates, fmt.Sprintf("%6.2f", rep.Mbps))
	}
	return "Table 1: Video Bit Rates vs. Resolution\n" +
		"Resolution      " + strings.Join(names, " ") + "\n" +
		"Bit Rate (Mbps) " + strings.Join(rates, " ") + "\n"
}

// Table2Result holds measured average RTT per regulated bandwidth for
// both interfaces (paper Table 2).
type Table2Result struct {
	BandwidthsMbps []float64
	WifiRTT        []time.Duration
	LteRTT         []time.Duration
}

// Table2 measures average RTT under a saturating bulk transfer at each
// regulated bandwidth, per interface — 12 independent (bandwidth,
// interface) cells fanned across the worker pool. The paper's numbers
// (the "table2" claims) come from tc buffering; ours come from the same
// mechanism — a drop-tail buffer ahead of the shaped link.
func Table2(sc Scale) *Table2Result { return alone(sc, planTable2) }

func planTable2(p *Plan) func() *Table2Result {
	bws := trace.GridBandwidthsMbps
	res := &Table2Result{
		BandwidthsMbps: bws,
		WifiRTT:        make([]time.Duration, len(bws)),
		LteRTT:         make([]time.Duration, len(bws)),
	}
	// Cell k saturates one path at bandwidth k/2 — WiFi when k is even,
	// LTE when it is odd — from a single subflow, with the other path an
	// unused trickle; its record is the subflow's mean smoothed RTT
	// sampled over the transfer. No cell reads a Scale field.
	fam := declare(p, "table2", func(_ Scenario, out *Outcome) time.Duration {
		return out.LoadedRTT
	}, func() []Scenario {
		var cells []Scenario
		for _, bw := range bws {
			for _, p := range [2]core.PathSpec{
				{Name: "wifi", RateMbps: bw, BaseRTT: core.WiFiBaseRTT},
				{Name: "lte", RateMbps: bw, BaseRTT: core.LTEBaseRTT},
			} {
				cells = append(cells, Scenario{
					Paths:     [2]core.PathSpec{p, {Name: "unused", RateMbps: 0.01, BaseRTT: time.Second}},
					Scheduler: "wifi-only",
					// Enough bytes to keep the path busy for ~20 s.
					Workload: Workload{Kind: workBulk, Bytes: int64(bw * 1e6 / 8 * 20)},
					Limit:    22 * time.Second,
				})
			}
		}
		return cells
	})
	fam.read(func(k int, rtt time.Duration) {
		if k%2 == 0 {
			res.WifiRTT[k/2] = rtt
		} else {
			res.LteRTT[k/2] = rtt
		}
	})
	return just(res)
}

// String renders the Table 2 rows.
func (r *Table2Result) String() string {
	t := &metrics.Table{Header: []string{"Bandwidth (Mbps)"}}
	for _, bw := range r.BandwidthsMbps {
		t.Header = append(t.Header, fmtMbps(bw))
	}
	wifi := []string{"WiFi RTT(ms)"}
	lte := []string{"LTE RTT(ms)"}
	for i := range r.BandwidthsMbps {
		wifi = append(wifi, fmt.Sprintf("%d", r.WifiRTT[i].Milliseconds()))
		lte = append(lte, fmt.Sprintf("%d", r.LteRTT[i].Milliseconds()))
	}
	t.AddRow(wifi...)
	t.AddRow(lte...)
	return "Table 2: Avg. RTT with Bandwidth Regulation\n" + t.String()
}

// Table3Result counts initial-window resets per scheduler in the
// heterogeneous streaming configuration (paper Table 3; its values are
// on the "table3" claims).
type Table3Result struct {
	Schedulers []string
	IWResets   []int64
}

// Table3 counts window resets per scheduler in the 0.3 Mbps WiFi /
// 8.6 Mbps LTE streaming runs Figure 14's heterogeneous panel reads.
func Table3(sc Scale) *Table3Result { return alone(sc, planTable3) }

func planTable3(p *Plan) func() *Table3Result {
	res := &Table3Result{
		Schedulers: paperSchedulers,
		IWResets:   make([]int64, len(paperSchedulers)),
	}
	oooFamily(p, 0.3, 8.6).read(func(i int, cell oooCell) { res.IWResets[i] = cell.IWResets })
	return just(res)
}

// String renders the Table 3 rows.
func (r *Table3Result) String() string {
	t := &metrics.Table{Header: append([]string{"Scheduler"}, r.Schedulers...)}
	row := []string{"# of IW Resets"}
	for _, v := range r.IWResets {
		row = append(row, fmt.Sprintf("%d", v))
	}
	t.AddRow(row...)
	return "Table 3: # of IW Resets - 0.3 Mbps WiFi & 8.6 Mbps LTE\n" + t.String()
}

// Table4Result reports the §6.3 wild web averages (paper Table 4; its
// values are on the "table4" claims).
type Table4Result struct {
	DefaultCompletion time.Duration
	ECFCompletion     time.Duration
	DefaultOOO        time.Duration
	ECFOOO            time.Duration
}

// Table4 prints the means of Figure 23's distributions.
func Table4(sc Scale) *Table4Result { return alone(sc, planTable4) }

// planTable4 reads Figure 23's cells, planned on the same plan.
func planTable4(p *Plan) func() *Table4Result {
	figure23 := planFigure23(p)
	return func() *Table4Result {
		f := figure23()
		mean := func(d distribution) time.Duration { return time.Duration(d.Mean() * float64(time.Second)) }
		return &Table4Result{
			DefaultCompletion: mean(f.Completion["minrtt"]),
			ECFCompletion:     mean(f.Completion["ecf"]),
			DefaultOOO:        mean(f.OOO["minrtt"]),
			ECFOOO:            mean(f.OOO["ecf"]),
		}
	}
}

// improvement returns the relative reductions ECF achieves.
func (r *Table4Result) improvement() (completion, ooo float64) {
	if r.DefaultCompletion > 0 {
		completion = 1 - float64(r.ECFCompletion)/float64(r.DefaultCompletion)
	}
	if r.DefaultOOO > 0 {
		ooo = 1 - float64(r.ECFOOO)/float64(r.DefaultOOO)
	}
	return completion, ooo
}

// String renders the Table 4 rows.
func (r *Table4Result) String() string {
	ci, oi := r.improvement()
	t := &metrics.Table{Header: []string{"", "Download Completion Time (sec)", "Out of Order Delay (sec)"}}
	t.AddRow("Default", fmt.Sprintf("%.3f", r.DefaultCompletion.Seconds()), fmt.Sprintf("%.3f", r.DefaultOOO.Seconds()))
	t.AddRow("ECF", fmt.Sprintf("%.3f", r.ECFCompletion.Seconds()), fmt.Sprintf("%.3f", r.ECFOOO.Seconds()))
	t.AddRow("ECF Improvement", fmt.Sprintf("%.0f%% shorter", ci*100), fmt.Sprintf("%.0f%% shorter", oi*100))
	return "Table 4: Average Statistics of Web Browsing in the Wild\n" + t.String()
}
