// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the simulation matrix for its
// experiment and returns a result type whose String method prints the
// same rows/series the paper reports. README.md carries the experiment
// index.
//
// Every driver enumerates its independent simulation cells as jobs for
// the internal/runner worker pool and collects results into pre-sized,
// cell-indexed storage, so output is byte-identical for any Workers
// setting.
package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dash"
	"repro/internal/metrics"
	"repro/internal/mptcp"
	"repro/internal/results"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Scale sets experiment sizes. The paper streams a 20-minute playout per
// cell and repeats everything 5-30 times on a physical testbed; the Full
// scale trades that down to what a laptop regenerates in minutes while
// preserving every qualitative shape, and Quick keeps unit tests fast.
type Scale struct {
	// VideoSec is the playout length for single-cell streaming studies.
	VideoSec float64
	// GridVideoSec is the per-cell playout length for 6×6 heat maps.
	GridVideoSec float64
	// RandomDurSec is the §5.3 scenario length.
	RandomDurSec float64
	// RandomScenarios is the §5.3 scenario count.
	RandomScenarios int
	// WebRuns repeats each wget/page configuration.
	WebRuns int
	// WildWebRuns is the §6.3 run count.
	WildWebRuns int
	// Workers bounds how many simulation cells run concurrently (the
	// ecfbench -j flag). Zero selects GOMAXPROCS. Every cell is an
	// independent simulation seeded by its own index, so results are
	// byte-identical for any worker count.
	Workers int
	// Results is the per-run session (the ecfbench -cache-dir/-shard/
	// -merge flags): its cache/shard policy, and the records the run
	// has produced so far, so drivers that share cells simulate each
	// once between them. Nil computes every cell every time, in-process
	// with no persistence. Like Workers it never affects cell content,
	// only where records come from, so it is excluded from cache keys.
	Results *results.Session
	// Progress, when non-nil, observes cell completion (the ecfbench
	// -progress flag): called after every finished cell with the count
	// completed so far and the batch total, possibly from several
	// worker goroutines at once. Like Workers and Results it never
	// affects cell content and is excluded from cache keys.
	Progress func(done, total int)
}

// Scale-key helpers: each cell family's cache key encodes only the
// Scale fields its cells actually read, so changing one knob (say
// WebRuns) invalidates only the families depending on it and leaves
// the expensive grid/streaming records valid. Workers and Results are
// excluded everywhere: the determinism contract guarantees they never
// change a cell's value. A driver that starts reading an additional
// Scale field must widen its key (or bump its schema).
func (sc Scale) videoKey() string { return fmt.Sprintf("v%g", sc.VideoSec) }
func (sc Scale) gridKey() string  { return fmt.Sprintf("gv%g", sc.GridVideoSec) }
func (sc Scale) randomKey() string {
	return fmt.Sprintf("rd%g,rs%d", sc.RandomDurSec, sc.RandomScenarios)
}
func (sc Scale) webKey() string     { return fmt.Sprintf("wr%d", sc.WebRuns) }
func (sc Scale) wildWebKey() string { return fmt.Sprintf("ww%d", sc.WildWebRuns) }

// spec builds the cache spec for one cell family. The name labels the
// family; drivers that share cells (the grid figures, Figure 20/21,
// Table 4 via Figure 23) pass the same name and share records. schema
// is the family's record-schema version — bumped whenever the driver's
// cell semantics change — and scaleKey is the relevant scale-key
// helper's output.
func (sc Scale) spec(experiment string, schema int, scaleKey string) results.Spec {
	return results.Spec{Experiment: experiment, Schema: schema, Scale: scaleKey}
}

// Full is the bench-scale profile.
var Full = Scale{
	VideoSec:        240,
	GridVideoSec:    90,
	RandomDurSec:    240,
	RandomScenarios: 10,
	WebRuns:         5,
	WildWebRuns:     30,
}

// Quick is the test-scale profile.
var Quick = Scale{
	VideoSec:        60,
	GridVideoSec:    30,
	RandomDurSec:    80,
	RandomScenarios: 3,
	WebRuns:         2,
	WildWebRuns:     6,
}

// StreamConfig parameterizes one streaming run.
type StreamConfig struct {
	// WifiMbps/LteMbps set the regulated bandwidths (ignored when Paths
	// is set).
	WifiMbps, LteMbps float64
	// Paths overrides the topology (wild runs).
	Paths []core.PathSpec
	// Scheduler is the registered scheduler name.
	Scheduler string
	// SchedulerInstance overrides Scheduler with a concrete instance
	// (ablations tweak scheduler parameters this way).
	SchedulerInstance mptcp.Scheduler
	// VideoSec is the playout length.
	VideoSec float64
	// SubflowsPerPath (default 1; §5.2.5 uses 2).
	SubflowsPerPath int
	// DisableIdleRestart turns off the RFC 2861 CWND reset (Figure 6).
	DisableIdleRestart bool
	// CC selects the congestion controller (default "lia").
	CC string
	// SampleInterval enables CWND/send-buffer trace sampling.
	SampleInterval time.Duration
	// PreRun runs after network construction, before the player starts
	// (jitter installation, bandwidth schedules).
	PreRun func(net *core.Network)
}

// cwndSampler periodically records every subflow's CWND and send-buffer
// occupancy into the streaming outcome's traces until the player
// finishes.
type cwndSampler struct {
	eng      *sim.Engine
	subflows []*tcp.Subflow
	out      *StreamOutcome
	done     *bool
	interval time.Duration
}

// kindCwndSample dispatches a trace sample through the typed event
// table.
var kindCwndSample sim.EventKind

func init() {
	kindCwndSample = sim.RegisterKind("experiments.cwndSample", func(a any) { a.(*cwndSampler).sample() })
}

func (s *cwndSampler) sample() {
	if *s.done {
		return
	}
	for i, sf := range s.subflows {
		s.out.CwndTraces[i].Add(s.eng.Now(), sf.CwndSegments())
		s.out.SndbufTraces[i].Add(s.eng.Now(), float64(sf.InflightBytes()))
	}
	s.eng.ScheduleEvent(s.interval, kindCwndSample, s)
}

// StreamOutcome is the telemetry of one streaming run.
type StreamOutcome struct {
	// Result is the player-side session record.
	Result *dash.Result
	// Finished reports whether the playout downloaded fully within the
	// simulation horizon.
	Finished bool
	// FastFraction is the share of received bytes carried by the
	// fast (higher-bandwidth) path; IdealFraction is the bandwidth share.
	FastFraction  float64
	IdealFraction float64
	// IWResets counts initial-window resets summed over subflows
	// (Table 3); FastIWResets counts only the fast path's.
	IWResets     int64
	FastIWResets int64
	// OOODelays are the receiver's reordering samples, copied into a
	// caller-owned buffer drawn from the metrics sample pool before the
	// network is closed (the receiver's own series is reused by the
	// next cell). Hand the buffer back with Release once the samples
	// are consumed.
	OOODelays []time.Duration
	// CwndTraces/SndbufTraces hold one series per subflow when sampling
	// was enabled (Figures 3, 11, 12).
	CwndTraces   []*metrics.TimeSeries
	SndbufTraces []*metrics.TimeSeries
	// SubflowNames labels the traces.
	SubflowNames []string
}

// Release hands the outcome's pooled telemetry buffers back to the
// metrics sample pool. Call it when the outcome's samples have been
// consumed (summarized, converted, rendered); the outcome must not be
// used afterwards. Dropping an outcome without releasing it is safe —
// the buffers are then simply collected instead of reused.
func (o *StreamOutcome) Release() {
	metrics.PutDurations(o.OOODelays)
	o.OOODelays = nil
}

// fastPathIndex returns which path is "fast" per the paper's definition:
// the higher-bandwidth one, with the lower-base-RTT WiFi breaking ties.
func fastPathIndex(wifiMbps, lteMbps float64) int {
	if lteMbps > wifiMbps {
		return 1
	}
	return 0
}

// RunStreaming executes one streaming session and gathers the outcome.
func RunStreaming(cfg StreamConfig) *StreamOutcome {
	specs := cfg.Paths
	if specs == nil {
		specs = core.DefaultPaths(cfg.WifiMbps, cfg.LteMbps)
	}
	net := core.NewNetwork(specs)
	defer net.Close()
	eng := net.Engine()

	connCfg := mptcp.DefaultConfig(0)
	if cfg.DisableIdleRestart {
		connCfg.IdleRestart = false
	}
	conn := net.NewConn(core.ConnOptions{
		Scheduler:         cfg.Scheduler,
		SchedulerInstance: cfg.SchedulerInstance,
		CongestionControl: cfg.CC,
		SubflowsPerPath:   cfg.SubflowsPerPath,
		Config:            &connCfg,
	})

	if cfg.PreRun != nil {
		cfg.PreRun(net)
	}

	videoSec := cfg.VideoSec
	if videoSec <= 0 {
		videoSec = 120
	}
	player := dash.NewPlayer(eng, conn, dash.PlayerConfig{
		VideoSeconds: videoSec,
	})

	out := &StreamOutcome{}
	done := false
	player.Start(func(*dash.Result) {
		done = true
		out.Finished = true
	})
	out.Result = player.Result()

	// Optional periodic sampling of CWND and subflow send-buffer
	// occupancy.
	if cfg.SampleInterval > 0 {
		subflows := conn.Subflows()
		out.CwndTraces = make([]*metrics.TimeSeries, len(subflows))
		out.SndbufTraces = make([]*metrics.TimeSeries, len(subflows))
		out.SubflowNames = make([]string, len(subflows))
		for i, sf := range subflows {
			out.CwndTraces[i] = &metrics.TimeSeries{}
			out.SndbufTraces[i] = &metrics.TimeSeries{}
			out.SubflowNames[i] = sf.Name()
		}
		s := &cwndSampler{eng: eng, subflows: subflows, out: out, done: &done, interval: cfg.SampleInterval}
		eng.ScheduleEvent(0, kindCwndSample, s)
	}

	net.Run(time.Duration((videoSec*12 + 300) * float64(time.Second)))

	nPaths := len(specs)
	fastPath := fastPathIndex(specs[0].RateMbps, specs[1].RateMbps)
	var fastBytes, totalBytes int64
	for id, b := range conn.Receiver().SubflowBytes() {
		totalBytes += b
		if id%nPaths == fastPath {
			fastBytes += b
		}
	}
	if totalBytes > 0 {
		out.FastFraction = float64(fastBytes) / float64(totalBytes)
	}
	sumBW := specs[0].RateMbps + specs[1].RateMbps
	if sumBW > 0 {
		fastBW := specs[fastPath].RateMbps
		out.IdealFraction = fastBW / sumBW
	}
	for id, sf := range conn.Subflows() {
		st := sf.Stats()
		out.IWResets += st.IWResets
		if id%nPaths == fastPath {
			out.FastIWResets += st.IWResets
		}
	}
	// Copy the reordering samples out of the pooled receiver: once the
	// deferred Close runs, the receiver (and its series) belongs to the
	// pool and may be reset by another cell.
	out.OOODelays = metrics.CopyDurations(conn.Receiver().OOODelays())
	return out
}

// newBatch starts a cell batch on the scale's worker pool under its
// cache/shard policy. Drivers register cells with results.Add and
// execute them with runBatch; nested sweeps (Figure 9's four grids)
// register everything first so one pool serves the whole flattened
// matrix.
func newBatch(sc Scale) *results.Batch {
	pool := runner.New(sc.Workers)
	pool.OnProgress = sc.Progress
	return results.NewBatch(pool, sc.Results)
}

// runBatch executes the batch's cells. Each cell must derive everything
// (topology, seeds, parameters) from its index and collect into
// pre-sized storage, so aggregation is order-independent and the
// sweep's output depends on neither sc.Workers nor cache state.
// Operational cache failures (store I/O, uploads, cell timeouts)
// surface as a *results.FatalError panic, since drivers return no
// errors; the ecfbench harness recovers it for a clean exit.
func runBatch(b *results.Batch) {
	if err := b.Run(context.Background()); err != nil {
		panic(&results.FatalError{Err: err})
	}
}

// runCells runs the n cells of a single-spec experiment: compute(i)
// produces cell i's serializable record, collect(i, v) places it in the
// driver's result structure. Caching, sharding and merge apply per the
// scale's Results session. The record collect receives may be one
// another driver already holds: collect and the driver's renderer read
// it, and copy before changing anything reachable from it.
func runCells[T any](sc Scale, spec results.Spec, n int, compute func(i int) T, collect func(i int, v T)) {
	b := newBatch(sc)
	results.Add(b, spec, n, compute, collect)
	runBatch(b)
}

// runSeed derives the RNG seed for repetition run of cell cell of the
// named experiment — runner.SeedRun, so streams stay disjoint across
// experiments even at equal indexes (ROADMAP item). Drivers that
// compare schedulers over shared randomness pass a cell index that
// excludes the scheduler, preserving the paper's paired design.
func runSeed(experiment string, cell, run int) uint64 {
	return runner.SeedRun(experiment, cell, run)
}

// seconds converts a float of seconds to a duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// fmtMbps labels grid axes.
func fmtMbps(v float64) string {
	switch {
	case v == float64(int64(v)):
		return itoa(int64(v))
	default:
		// one decimal, no fmt dependency creep — small helper
		whole := int64(v)
		frac := int64(v*10+0.5) - whole*10
		return itoa(whole) + "." + itoa(frac)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
