package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dash"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/web"
)

// Scenario fully describes one simulation cell: the two paths, the
// connection, the background processes perturbing the paths, and the
// workload. It is a plain comparable value — no func, interface,
// pointer, slice or map — so a cell family's record key is derived from
// its scenarios (see family), and two cells that would simulate the
// same thing compare equal.
type Scenario struct {
	// Paths are WiFi and LTE, in that order.
	Paths [2]core.PathSpec
	// Scheduler is the registered scheduler name. Versus, when set, names
	// a second scheduler the cell also runs the workload under, over the
	// same seeds (Figure 19's paired wget cells); Run reports that run
	// as Outcome.Versus.
	Scheduler, Versus string
	// CC is the congestion controller ("" selects LIA).
	CC string
	// SubflowsPerPath is the subflow count over each path (0 means 1).
	SubflowsPerPath int
	// NoIdleRestart turns off the RFC 2861 CWND reset (Figure 6).
	NoIdleRestart bool
	// Jitter perturbs each path's propagation delay around its BaseRTT
	// (trace.InstallRTTJitter); a zero Interval installs none.
	Jitter [2]Jitter
	// RandomSeed, when non-zero, seeds the §5.3 bandwidth changes: each
	// path switches among trace.RandomChangeValuesMbps at exponentially
	// distributed intervals (mean 40 s) over the playout.
	RandomSeed uint64
	// Workload is what the connection carries.
	Workload Workload
	// Limit is the virtual-time limit of one run.
	Limit time.Duration
}

// Jitter is one path's RTT-jitter walk: a relative amplitude, re-drawn
// every Interval until Until, from Seed.
type Jitter struct {
	Amplitude float64
	Interval  time.Duration
	Until     time.Duration
	Seed      uint64
}

// workKind names a workload.
type workKind uint8

const (
	// workStream plays a DASH video of VideoSec seconds (§5.2, §5.3, §6.2).
	workStream workKind = iota + 1
	// workWget downloads one object of Bytes, Runs times (§5.4).
	workWget
	// workPage fetches the CNN-like page over Conns persistent
	// connections (§5.5, §6.3).
	workPage
	// workBulk writes Bytes at once and samples the loaded RTT (Table 2).
	workBulk
)

// Workload is a scenario's traffic and its size. Which fields are read
// depends on Kind.
type Workload struct {
	Kind workKind
	// VideoSec is a stream's playout length. SampleInterval, when
	// positive, samples every subflow's CWND and send buffer that often.
	VideoSec       float64
	SampleInterval time.Duration
	// Bytes is a wget's object size, or a bulk transfer's length.
	Bytes int64
	// Runs repeats a wget. Run r draws its seed from runSeed(SeedExp,
	// SeedCell, r) and seeds both paths' loss and jitter from it, in
	// place of their Seed fields.
	Runs     int
	SeedExp  string
	SeedCell int
	// PageSeed draws the page's objects (web.CNNPageObjects); Conns is
	// the number of persistent connections fetching them.
	PageSeed uint64
	Conns    int
}

// Streaming is the paper's standard two-path streaming scenario: WiFi
// and LTE regulated to the given rates, a playout of videoSec seconds
// under the scheduler, and a limit of twelve times the playout plus five
// minutes.
func Streaming(wifiMbps, lteMbps float64, scheduler string, videoSec float64) Scenario {
	return Scenario{
		Paths:     [2]core.PathSpec(core.DefaultPaths(wifiMbps, lteMbps)),
		Scheduler: scheduler,
		Workload:  Workload{Kind: workStream, VideoSec: videoSec},
		Limit:     seconds(videoSec*12 + 300),
	}
}

// versus returns the scenario under its Versus scheduler.
func (s Scenario) versus() Scenario {
	s.Scheduler, s.Versus = s.Versus, ""
	return s
}

// cost estimates the cell's compute expense for longest-first dispatch:
// a streaming cell's events grow with aggregate bandwidth × playout
// length, so the high-bandwidth cells dominate a sweep's tail. Other
// workloads declare none.
func (s Scenario) cost() float64 {
	if s.Workload.Kind != workStream {
		return 0
	}
	return (s.Paths[0].RateMbps + s.Paths[1].RateMbps) * s.Workload.VideoSec
}

// eventsPerSimSecond sizes each network's event budget per second of
// its scenario's Limit: 11× the densest cell, Table 2's bulk transfers
// at ~1,800 (TestEventBudgetMargin pins ≥ 8× per workload kind).
const eventsPerSimSecond = 20_000

// budget is the queue dispatches each of the scenario's networks may make.
func (s Scenario) budget() uint64 {
	return eventsPerSimSecond * uint64(s.Limit) / uint64(time.Second)
}

// Outcome is what one scenario's simulation reports; which fields are
// set depends on the workload.
type Outcome struct {
	// Result is a stream's player-side session record, and Finished
	// whether the playout downloaded fully within the limit.
	Result   *dash.Result
	Finished bool
	// FastFraction is the share of received bytes carried by the fast
	// (higher-bandwidth) path; IdealFraction is its bandwidth share.
	FastFraction  float64
	IdealFraction float64
	// IWResets counts initial-window resets summed over subflows
	// (Table 3).
	IWResets int64
	// CwndTraces/SndbufTraces hold one series per subflow, labelled by
	// SubflowNames, when the stream was sampled (Figures 3, 11, 12).
	CwndTraces   []*metrics.TimeSeries
	SndbufTraces []*metrics.TimeSeries
	SubflowNames []string
	// OOODelays are a stream's or a page's reordering samples, every
	// connection's pooled, copied into a buffer drawn from the metrics
	// sample pool before the network is closed (the receivers' own
	// series are reused by the next cell). release hands it back.
	OOODelays []time.Duration
	// Completions holds a wget's completion time per run, or a page's
	// per object.
	Completions []time.Duration
	// LoadedRTT is a bulk transfer's mean smoothed RTT.
	LoadedRTT time.Duration
	// Versus is the workload's outcome under the scenario's Versus
	// scheduler, when it names one.
	Versus *Outcome
}

// release hands the outcome's pooled telemetry buffers back to the
// metrics sample pool. Call it when the outcome's samples have been
// consumed (summarized, converted, rendered); the outcome must not be
// used afterwards. Dropping an outcome without releasing it is safe —
// the buffers are then simply collected instead of reused.
func (o *Outcome) release() {
	metrics.PutDurations(o.OOODelays)
	o.OOODelays = nil
	if o.Versus != nil {
		o.Versus.release()
	}
}

// webRun drives a web cell's network once its transfers are set up and
// reports whether the network went quiet before the virtual-time limit.
// Web cells run (*core.Network).RunQuiet: a web cell's result is fixed
// the moment its last packet is handled, and the only events pending
// after that are RTT-jitter ticks setting a delay nothing will read, so
// running on to the limit buys thousands of dispatches and no output.
// Tests pass other drives (a horizon run as reference, a lossy network).
type webRun func(net *core.Network, limit time.Duration) bool

// Run simulates the scenario under its Scheduler, then under its Versus
// scheduler when it names one, and gathers the outcome.
func (s Scenario) Run() *Outcome { return s.run((*core.Network).RunQuiet, nil) }

// run is Run with a web workload's network driven by drive, and with
// every network the scenario builds observed by rec when it is non-nil.
func (s Scenario) run(drive webRun, rec *obs.CellRecorder) *Outcome {
	out := &Outcome{}
	if s.Workload.Kind == workWget {
		for r := 0; r < s.Workload.Runs; r++ {
			seed := runSeed(s.Workload.SeedExp, s.Workload.SeedCell, r)
			one := s
			one.Paths[0].Seed, one.Paths[1].Seed = seed*17, seed*31+7
			one.Jitter[0].Seed, one.Jitter[1].Seed = seed*101+1, seed*211+5
			one.simulate(drive, rec, out)
		}
	} else {
		s.simulate(drive, rec, out)
	}
	if s.Versus != "" {
		out.Versus = s.versus().run(drive, rec)
	}
	return out
}

// simulate builds the scenario's network, runs its workload once under
// the scenario's event budget and adds what it reports to out. A failed
// cell panics with a *results.CellError; Close still pools the network.
func (s Scenario) simulate(drive webRun, rec *obs.CellRecorder, out *Outcome) {
	net := core.NewNetwork(s.Paths[:])
	defer net.Close()
	eng := net.Engine()
	eng.Observe(rec)
	eng.SetBudget(s.budget())
	for i, j := range s.Jitter {
		if j.Interval > 0 {
			trace.InstallRTTJitter(net, i, s.Paths[i].BaseRTT, j.Amplitude, j.Interval, j.Seed, j.Until)
		}
	}
	if s.RandomSeed != 0 {
		trace.Apply(net, trace.RandomScenario(s.RandomSeed, 2, seconds(s.Workload.VideoSec), 40*time.Second, trace.RandomChangeValuesMbps))
	}
	cfg := mptcp.DefaultConfig(0)
	if s.NoIdleRestart {
		cfg.IdleRestart = false
	}
	opts := core.ConnOptions{
		Scheduler:         s.Scheduler,
		CongestionControl: s.CC,
		SubflowsPerPath:   s.SubflowsPerPath,
		Config:            &cfg,
	}
	w := s.Workload
	switch w.Kind {
	case workStream:
		s.stream(net, net.NewConn(opts), out)
	case workWget:
		var dur time.Duration
		done := false
		web.Download(net.NewConn(opts), w.Bytes, func(o web.ObjectResult) { dur, done = o.Duration(), true })
		s.mustComplete(done, drive(net, s.Limit), net)
		out.Completions = append(out.Completions, dur)
	case workPage:
		conns := make([]*mptcp.Conn, w.Conns)
		for i := range conns {
			conns[i] = net.NewConn(opts)
		}
		var res *web.PageResult
		web.FetchPage(eng, conns, web.PageConfig{
			Objects:   web.CNNPageObjects(w.PageSeed),
			ThinkTime: 30 * time.Millisecond,
		}, func(r *web.PageResult) { res = r })
		s.mustComplete(res != nil, drive(net, s.Limit), net)
		out.Completions = res.CompletionTimes()
		out.OOODelays = metrics.GetDurations()
		for _, c := range conns {
			out.OOODelays = append(out.OOODelays, c.Receiver().OOODelays()...)
		}
	case workBulk:
		conn := net.NewConn(opts)
		conn.Write(w.Bytes, nil)
		smp := &loadedRTTSampler{eng: eng, sf: conn.Subflows()[0]}
		eng.ScheduleEvent(2*time.Second, kindLoadedRTTSample, smp) // skip slow-start warm-up
		net.Run(s.Limit)
		s.withinBudget(net)
		if smp.n > 0 {
			out.LoadedRTT = smp.sum / time.Duration(smp.n)
		}
	default:
		panic(fmt.Sprintf("experiments: scenario with unknown workload kind %d", w.Kind))
	}
}

// stream plays the scenario's video over conn to the limit and gathers
// the session's telemetry.
func (s Scenario) stream(net *core.Network, conn *mptcp.Conn, out *Outcome) {
	eng := net.Engine()
	player := dash.NewPlayer(eng, conn, dash.PlayerConfig{VideoSeconds: s.Workload.VideoSec})
	player.Start(func(*dash.Result) { out.Finished = true })
	out.Result = player.Result()
	if iv := s.Workload.SampleInterval; iv > 0 {
		subflows := conn.Subflows()
		out.CwndTraces = make([]*metrics.TimeSeries, len(subflows))
		out.SndbufTraces = make([]*metrics.TimeSeries, len(subflows))
		out.SubflowNames = make([]string, len(subflows))
		for i, sf := range subflows {
			out.CwndTraces[i] = &metrics.TimeSeries{}
			out.SndbufTraces[i] = &metrics.TimeSeries{}
			out.SubflowNames[i] = sf.Name()
		}
		smp := &cwndSampler{eng: eng, subflows: subflows, out: out, interval: iv}
		eng.ScheduleEvent(0, kindCwndSample, smp)
	}
	net.Run(s.Limit)
	s.withinBudget(net)

	// The fast path is the higher-bandwidth one, the lower-base-RTT WiFi
	// breaking ties.
	fastPath := 0
	if s.Paths[1].RateMbps > s.Paths[0].RateMbps {
		fastPath = 1
	}
	var fastBytes, totalBytes int64
	for id, b := range conn.Receiver().SubflowBytes() {
		totalBytes += b
		if id%len(s.Paths) == fastPath {
			fastBytes += b
		}
	}
	if totalBytes > 0 {
		out.FastFraction = float64(fastBytes) / float64(totalBytes)
	}
	if sumBW := s.Paths[0].RateMbps + s.Paths[1].RateMbps; sumBW > 0 {
		out.IdealFraction = s.Paths[fastPath].RateMbps / sumBW
	}
	for _, sf := range conn.Subflows() {
		out.IWResets += sf.Stats().IWResets
	}
	out.OOODelays = metrics.CopyDurations(conn.Receiver().OOODelays())
}

// withinBudget fails the cell when its drive stopped on the event budget.
func (s Scenario) withinBudget(net *core.Network) {
	if eng := net.Engine(); eng.Exhausted() {
		panic(&results.CellError{Err: fmt.Errorf("experiments: a cell under %s exhausted its event budget: %d dispatches by %v of virtual time, budget %d (%d per simulated second of the %v limit); scenario %+v",
			s.Scheduler, eng.Processed(), eng.Now(), s.budget(), eventsPerSimSecond, s.Limit, s)})
	}
}

// mustComplete fails the cell when a web cell's run ended without its
// completion callback having fired: a silent zero would drag a mean
// down unnoticed. An exhausted budget is named as the cause first.
func (s Scenario) mustComplete(done, quiet bool, net *core.Network) {
	s.withinBudget(net)
	if done {
		return
	}
	how := fmt.Sprintf("the %v cap was reached", s.Limit)
	if quiet {
		how = fmt.Sprintf("the network went quiet at %v", net.Now())
	}
	panic(&results.CellError{Err: fmt.Errorf("experiments: a web cell under %s never completed: %s; scenario %+v", s.Scheduler, how, s)})
}

// cwndSampler periodically records every subflow's CWND and send-buffer
// occupancy into the outcome's traces until the player finishes.
type cwndSampler struct {
	eng      *sim.Engine
	subflows []*tcp.Subflow
	out      *Outcome
	interval time.Duration
}

// kindCwndSample dispatches a trace sample through the typed event
// table.
var kindCwndSample sim.EventKind

func init() {
	kindCwndSample = sim.RegisterKind("experiments.cwndSample", func(a any) { a.(*cwndSampler).sample() })
}

func (s *cwndSampler) sample() {
	if s.out.Finished {
		return
	}
	for i, sf := range s.subflows {
		s.out.CwndTraces[i].Add(s.eng.Now(), sf.CwndSegments())
		s.out.SndbufTraces[i].Add(s.eng.Now(), float64(sf.InflightBytes()))
	}
	s.eng.ScheduleEvent(s.interval, kindCwndSample, s)
}

// loadedRTTSampler samples a saturated subflow's smoothed RTT every
// 250 ms until 20 s (the Table 2 loaded-RTT measurement).
type loadedRTTSampler struct {
	eng *sim.Engine
	sf  *tcp.Subflow
	sum time.Duration
	n   int
}

// kindLoadedRTTSample dispatches an RTT sample through the typed event
// table.
var kindLoadedRTTSample sim.EventKind

func init() {
	kindLoadedRTTSample = sim.RegisterKind("experiments.loadedRTTSample", func(a any) { a.(*loadedRTTSampler).sample() })
}

func (s *loadedRTTSampler) sample() {
	s.sum += s.sf.Srtt()
	s.n++
	if s.eng.Now() < 20*time.Second {
		s.eng.ScheduleEvent(250*time.Millisecond, kindLoadedRTTSample, s)
	}
}
