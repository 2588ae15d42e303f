package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Figure1Result is the ON-OFF download pattern of §2.2.
type Figure1Result struct {
	// Trace is the cumulative downloaded amount over time.
	Trace []struct {
		At    time.Duration
		Bytes int64
	}
	// OffPeriods counts steady-state inter-request gaps above one second.
	OffPeriods int
	// InitialBufferingEnds marks when the buffer first filled.
	InitialBufferingEnds time.Duration
}

// Figure1 reproduces the Netflix-style ON-OFF client behaviour: an
// initial-buffering ramp followed by paced chunk fetches. Its single
// cell's record is the Figure1Result itself.
func Figure1(sc Scale) *Figure1Result { return alone(sc, planFigure1) }

func planFigure1(p *Plan) func() *Figure1Result {
	res := &Figure1Result{}
	fam := declare(p, "fig1", func(_ Scenario, out *Outcome) *Figure1Result {
		cell := &Figure1Result{}
		for _, p := range out.Result.DownloadTrace {
			cell.Trace = append(cell.Trace, struct {
				At    time.Duration
				Bytes int64
			}{p.At, p.Bytes})
		}
		chunks := out.Result.Chunks
		for i := 1; i < len(chunks); i++ {
			gap := chunks[i].RequestedAt - chunks[i-1].CompletedAt
			if gap > time.Second {
				if cell.OffPeriods == 0 {
					cell.InitialBufferingEnds = chunks[i-1].CompletedAt
				}
				cell.OffPeriods++
			}
		}
		return cell
	}, func() []Scenario { return []Scenario{Streaming(8.6, 8.6, "minrtt", p.sc.VideoSec)} })
	fam.read(func(_ int, cell *Figure1Result) { *res = *cell })
	return just(res)
}

// String renders the cumulative download series.
func (r *Figure1Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: Example Download Behavior (cumulative MB over time)\n")
	t := &metrics.Table{Header: []string{"t (s)", "downloaded (MB)"}}
	for _, p := range r.Trace {
		t.AddRow(fmt.Sprintf("%.1f", p.At.Seconds()), fmt.Sprintf("%.2f", float64(p.Bytes)/1e6))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "initial buffering completes ≈ %.1f s; %d OFF periods afterwards\n",
		r.InitialBufferingEnds.Seconds(), r.OffPeriods)
	return b.String()
}

// Figure3Result is the send-buffer occupancy trace for 0.3/8.6 under the
// default scheduler.
type Figure3Result struct {
	Names  []string
	Traces []*metrics.TimeSeries // bytes over time, per subflow
}

// paperSchedulers are the four schedulers the paper compares, the
// default first.
var paperSchedulers = []string{"minrtt", "daps", "blest", "ecf"}

// sampleInterval is how often the sampled streams record their
// subflows. The sampler fires at t = 0 and reschedules itself by the
// interval, so sample i is taken at i × sampleInterval.
const sampleInterval = 100 * time.Millisecond

// sampledCell is the record of one 0.3/8.6 streaming run sampled every
// sampleInterval: both subflows' congestion window and send-buffer
// occupancy, sample i taken at sampleTimes' instant i. Figure 3 renders
// the default scheduler's send buffers, Figures 11 and 12 each
// scheduler's CWND on one subflow.
type sampledCell struct {
	Subflows []string
	Cwnd     []metrics.Series // [subflow][sample], segments
	Sndbuf   []metrics.Series // [subflow][sample], unacked bytes
}

// sampledFamily is "sampled/0.3-8.6": one sampled 0.3/8.6 stream per
// paper scheduler.
func sampledFamily(p *Plan) *family[sampledCell] {
	return declare(p, "sampled/0.3-8.6", func(_ Scenario, out *Outcome) sampledCell {
		cell := sampledCell{Subflows: out.SubflowNames}
		for j := range out.CwndTraces {
			cell.Cwnd = append(cell.Cwnd, out.CwndTraces[j].V)
			cell.Sndbuf = append(cell.Sndbuf, out.SndbufTraces[j].V)
		}
		return cell
	}, func() []Scenario {
		cells := make([]Scenario, len(paperSchedulers))
		for i, sched := range paperSchedulers {
			cells[i] = Streaming(0.3, 8.6, sched, p.sc.VideoSec)
			cells[i].Workload.SampleInterval = sampleInterval
		}
		return cells
	})
}

// sampleTimes returns the instants of a sampled stream's first n
// samples.
func sampleTimes(n int) []time.Duration {
	t := make([]time.Duration, n)
	for i := range t {
		t[i] = time.Duration(i) * sampleInterval
	}
	return t
}

// Figure3 samples subflow send-buffer occupancy (unacked bytes, in-flight
// included, as the paper measures) every 100 ms.
func Figure3(sc Scale) *Figure3Result { return alone(sc, planFigure3) }

func planFigure3(p *Plan) func() *Figure3Result {
	res := &Figure3Result{}
	sampledFamily(p).read(func(_ int, cell sampledCell) {
		res.Names = cell.Subflows
		for _, v := range cell.Sndbuf {
			res.Traces = append(res.Traces, &metrics.TimeSeries{T: sampleTimes(len(v)), V: v})
		}
	}, 0)
	return just(res)
}

// String renders a down-sampled occupancy table.
func (r *Figure3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: Send Buffer Occupancy (KB), 0.3 Mbps WiFi / 8.6 Mbps LTE\n")
	t := &metrics.Table{Header: append([]string{"t (s)"}, r.Names...)}
	if len(r.Traces) > 0 {
		ds := make([]*metrics.TimeSeries, len(r.Traces))
		for i, tr := range r.Traces {
			ds[i] = tr.Downsample(10)
		}
		for k := 0; k < ds[0].Len(); k++ {
			row := []string{fmt.Sprintf("%.1f", ds[0].T[k].Seconds())}
			for i := range ds {
				if k < ds[i].Len() {
					row = append(row, fmt.Sprintf("%.1f", ds[i].V[k]/1000))
				} else {
					row = append(row, "")
				}
			}
			t.AddRow(row...)
		}
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure5Result holds the CDFs of last-packet time differences for the
// x-8.6 Mbps bandwidth pairs.
type Figure5Result struct {
	WifiBandwidths []float64
	CDFs           []*metrics.CDF
}

// figure5Pairs are the paper's four WiFi settings against 8.6 Mbps LTE.
var figure5Pairs = []float64{0.3, 0.7, 1.1, 4.2}

// Figure5 measures, per chunk, the time difference between the last
// packets received on each path under the default scheduler: the
// default-scheduler cell of each pair's "ooo" family, the very runs
// Figure 13 reads the OOO delays of.
func Figure5(sc Scale) *Figure5Result { return alone(sc, planFigure5) }

func planFigure5(p *Plan) func() *Figure5Result {
	res := &Figure5Result{
		WifiBandwidths: figure5Pairs,
		CDFs:           make([]*metrics.CDF, len(figure5Pairs)),
	}
	for i, wifi := range figure5Pairs {
		i := i
		oooFamily(p, wifi, 8.6).read(func(_ int, cell oooCell) {
			res.CDFs[i] = metrics.NewCDF(cell.LastPacketDiffs)
		}, 0)
	}
	return just(res)
}

// String renders CDF quantiles per pair.
func (r *Figure5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5: Time Difference of Last Packets (CDF quantiles, seconds)\n")
	t := &metrics.Table{Header: []string{"WiFi-LTE (Mbps)", "p25", "p50", "p75", "p95"}}
	for i, wifi := range r.WifiBandwidths {
		c := r.CDFs[i]
		t.AddRow(fmtMbps(wifi)+"-8.6",
			fmt.Sprintf("%.3f", c.Quantile(0.25)),
			fmt.Sprintf("%.3f", c.Quantile(0.50)),
			fmt.Sprintf("%.3f", c.Quantile(0.75)),
			fmt.Sprintf("%.3f", c.Quantile(0.95)))
	}
	b.WriteString(t.String())
	return b.String()
}

// CwndTraceResult carries per-scheduler CWND traces for one subflow
// (Figure 11: WiFi, Figure 12: LTE) in the 0.3/8.6 configuration.
type CwndTraceResult struct {
	Figure     string
	SubflowIdx int
	Schedulers []string
	Traces     map[string]*metrics.TimeSeries
}

// planCwndTrace picks the chosen subflow's congestion-window series out
// of each scheduler's sampled 0.3/8.6 run.
func planCwndTrace(fig string, subflowIdx int, p *Plan) func() *CwndTraceResult {
	res := &CwndTraceResult{
		Figure:     fig,
		SubflowIdx: subflowIdx,
		Schedulers: paperSchedulers,
		Traces:     make(map[string]*metrics.TimeSeries),
	}
	traces := make([]*metrics.TimeSeries, len(res.Schedulers))
	sampledFamily(p).read(func(i int, cell sampledCell) {
		v := cell.Cwnd[subflowIdx]
		traces[i] = &metrics.TimeSeries{T: sampleTimes(len(v)), V: v}
	})
	return func() *CwndTraceResult {
		for i, s := range res.Schedulers {
			res.Traces[s] = traces[i]
		}
		return res
	}
}

// Figure11 traces the WiFi (slow) subflow's CWND per scheduler.
func Figure11(sc Scale) *CwndTraceResult { return alone(sc, planFigure11) }

func planFigure11(p *Plan) func() *CwndTraceResult {
	return planCwndTrace("Figure 11 (WiFi CWND)", 0, p)
}

// Figure12 traces the LTE (fast) subflow's CWND per scheduler.
func Figure12(sc Scale) *CwndTraceResult { return alone(sc, planFigure12) }

func planFigure12(p *Plan) func() *CwndTraceResult {
	return planCwndTrace("Figure 12 (LTE CWND)", 1, p)
}

// String renders mean/summary rows per scheduler plus a down-sampled
// trace for ECF vs default.
func (r *CwndTraceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — 0.3 Mbps WiFi and 8.6 Mbps LTE\n", r.Figure)
	t := &metrics.Table{Header: []string{"scheduler", "mean cwnd (segments)", "max"}}
	for _, s := range r.Schedulers {
		tr := r.Traces[s]
		maxV := 0.0
		for _, v := range tr.V {
			if v > maxV {
				maxV = v
			}
		}
		t.AddRow(s, fmt.Sprintf("%.1f", tr.MeanValue()), fmt.Sprintf("%.0f", maxV))
	}
	b.WriteString(t.String())
	return b.String()
}

// OOOResult carries out-of-order delay distributions per scheduler for
// one bandwidth configuration.
type OOOResult struct {
	Label      string
	Schedulers []string
	Delays     map[string]metrics.DelayDist
}

// oooCell is the record of one "ooo/<wifi>-<lte>" streaming run: the
// receiver's packed out-of-order delay distribution (Figures 13, 14),
// per chunk fetched over both paths the seconds between the last
// packets received on each (Figure 5), and the initial-window resets
// summed over subflows (Table 3).
type oooCell struct {
	Delays          metrics.DelayDist
	LastPacketDiffs []float64
	IWResets        int64
}

// oooFamily is "ooo/<wifi>-<lte>": one stream of the bandwidth pair per
// paper scheduler, the default first.
func oooFamily(p *Plan, wifi, lte float64) *family[oooCell] {
	return declare(p, "ooo/"+fmtMbps(wifi)+"-"+fmtMbps(lte), func(_ Scenario, out *Outcome) oooCell {
		return oooCell{
			Delays:          metrics.NewDelayDist(out.OOODelays),
			LastPacketDiffs: metrics.DurationsToSeconds(out.Result.LastPacketDiffs()),
			IWResets:        out.IWResets,
		}
	}, func() []Scenario {
		cells := make([]Scenario, len(paperSchedulers))
		for i, sched := range paperSchedulers {
			cells[i] = Streaming(wifi, lte, sched, p.sc.VideoSec)
		}
		return cells
	})
}

// readOOOPanel registers one pair's cells and returns the panel their
// delay distributions fill in when the plan runs.
func readOOOPanel(p *Plan, label string, wifi, lte float64) *OOOResult {
	res := &OOOResult{Label: label, Schedulers: paperSchedulers, Delays: make(map[string]metrics.DelayDist)}
	var mu sync.Mutex // collect runs concurrently and Delays is a map
	oooFamily(p, wifi, lte).read(func(i int, cell oooCell) {
		mu.Lock()
		res.Delays[paperSchedulers[i]] = cell.Delays
		mu.Unlock()
	})
	return res
}

// Figure13Result is the default scheduler's OOO delay across pairs.
type Figure13Result struct {
	WifiBandwidths []float64
	Delays         []metrics.DelayDist
}

// Figure13 measures OOO-delay CCDFs for the default scheduler at the
// four x-8.6 pairs: the default-scheduler cell of each pair's "ooo"
// family, which Figure 5 reads too and two of which Figure 14 also
// reads.
func Figure13(sc Scale) *Figure13Result { return alone(sc, planFigure13) }

func planFigure13(p *Plan) func() *Figure13Result {
	res := &Figure13Result{
		WifiBandwidths: figure5Pairs,
		Delays:         make([]metrics.DelayDist, len(figure5Pairs)),
	}
	for i, wifi := range figure5Pairs {
		i := i
		oooFamily(p, wifi, 8.6).read(func(_ int, cell oooCell) {
			res.Delays[i] = cell.Delays
		}, 0)
	}
	return just(res)
}

// String renders CCDF rows.
func (r *Figure13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: Out-of-Order Delay CCDF (Default scheduler)\n")
	t := &metrics.Table{Header: []string{"WiFi-LTE", "P(>0.1s)", "P(>0.5s)", "P(>1.0s)", "mean (s)"}}
	for i, wifi := range r.WifiBandwidths {
		c := r.Delays[i]
		t.AddRow(fmtMbps(wifi)+"-8.6",
			fmt.Sprintf("%.4f", c.CCDFAt(0.1)),
			fmt.Sprintf("%.4f", c.CCDFAt(0.5)),
			fmt.Sprintf("%.4f", c.CCDFAt(1.0)),
			fmt.Sprintf("%.4f", c.Mean()))
	}
	b.WriteString(t.String())
	return b.String()
}

// Figure14Result is the four-scheduler OOO comparison at two pairs.
type Figure14Result struct {
	Heterogeneous *OOOResult // 0.3 / 8.6
	Symmetric     *OOOResult // 4.2 / 8.6
}

// Figure14 compares OOO delay across schedulers at two pairs.
func Figure14(sc Scale) *Figure14Result { return alone(sc, planFigure14) }

func planFigure14(p *Plan) func() *Figure14Result {
	return just(&Figure14Result{
		Heterogeneous: readOOOPanel(p, "0.3 Mbps WiFi and 8.6 Mbps LTE", 0.3, 8.6),
		Symmetric:     readOOOPanel(p, "4.2 Mbps WiFi and 8.6 Mbps LTE", 4.2, 8.6),
	})
}

// String renders both panels.
func (r *Figure14Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 14: Out-of-Order Delay by Scheduler\n")
	for _, panel := range []*OOOResult{r.Heterogeneous, r.Symmetric} {
		fmt.Fprintf(&b, "(%s)\n", panel.Label)
		t := &metrics.Table{Header: []string{"scheduler", "P(>0.1s)", "P(>0.5s)", "P(>0.8s)", "mean (s)"}}
		for _, s := range panel.Schedulers {
			c := panel.Delays[s]
			t.AddRow(s,
				fmt.Sprintf("%.4f", c.CCDFAt(0.1)),
				fmt.Sprintf("%.4f", c.CCDFAt(0.5)),
				fmt.Sprintf("%.4f", c.CCDFAt(0.8)),
				fmt.Sprintf("%.4f", c.Mean()))
		}
		b.WriteString(t.String())
	}
	return b.String()
}
