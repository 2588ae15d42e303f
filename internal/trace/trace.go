// Package trace generates the experiment scenarios of the paper's
// evaluation: the fixed bandwidth grids (§3.1, §5.2, §5.4), the random
// bandwidth-change processes (§5.3), and the "in the wild" path
// conditions (§6) that we synthesize since we have no physical WiFi/LTE
// testbed.
package trace

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// GridBandwidthsMbps is the 6-value tc grid of §3.1/§5.2.
var GridBandwidthsMbps = []float64{0.3, 0.7, 1.1, 1.7, 4.2, 8.6}

// WebBandwidthsMbps is the 1..10 Mbps grid of §5.4/§5.5.
var WebBandwidthsMbps = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// RandomChangeValuesMbps is the §5.3 value set for random bandwidth
// changes.
var RandomChangeValuesMbps = []float64{0.3, 1.1, 1.7, 4.2, 8.6}

// BandwidthChange is one scheduled rate change on one path.
type BandwidthChange struct {
	At      time.Duration
	PathIdx int
	Mbps    float64
}

// RandomScenario draws a §5.3 scenario: each path independently changes
// bandwidth at exponentially distributed intervals (mean meanInterval),
// with values chosen uniformly at random from values. Deterministic for a
// given seed.
func RandomScenario(seed uint64, paths int, duration, meanInterval time.Duration, values []float64) []BandwidthChange {
	rng := sim.NewRNG(seed*0x9e37 + 0x79b9)
	var out []BandwidthChange
	for p := 0; p < paths; p++ {
		at := time.Duration(0)
		for {
			at += time.Duration(rng.ExpFloat64() * float64(meanInterval))
			if at >= duration {
				break
			}
			out = append(out, BandwidthChange{
				At:      at,
				PathIdx: p,
				Mbps:    values[rng.Intn(len(values))],
			})
		}
	}
	return out
}

// InitialRates draws the scenario's starting bandwidth per path, using a
// stream decoupled from the change sequence.
func InitialRates(seed uint64, paths int, values []float64) []float64 {
	rng := sim.NewRNG(seed*0x517c + 0xc2b2)
	out := make([]float64, paths)
	for i := range out {
		out[i] = values[rng.Intn(len(values))]
	}
	return out
}

// rateChange is the argument of one scheduled bandwidth change.
type rateChange struct {
	net     *core.Network
	pathIdx int
	mbps    float64
}

// kindRateChange dispatches a scheduled bandwidth change through the
// typed event table.
var kindRateChange sim.EventKind

func init() {
	kindRateChange = sim.RegisterKind("trace.rateChange", func(a any) {
		c := a.(*rateChange)
		c.net.SetRateMbps(c.pathIdx, c.mbps)
	})
}

// Apply schedules the changes on the network.
func Apply(net *core.Network, changes []BandwidthChange) {
	for _, ch := range changes {
		net.Engine().AtEvent(ch.At, kindRateChange, &rateChange{net: net, pathIdx: ch.PathIdx, mbps: ch.Mbps})
	}
}

// WildRun describes one §6 measurement run. The paper's nine streaming
// runs (Figure 22a) show LTE pinned near 70 ms while the public WiFi's
// average RTT spreads from tens of milliseconds to nearly a second; we
// regenerate that spread directly.
type WildRun struct {
	// Index is the 1-based run number (runs are sorted by WiFi RTT).
	Index int
	// WifiRTT and LteRTT are the mean base RTTs for the run.
	WifiRTT, LteRTT time.Duration
	// WifiMbps and LteMbps are the (unregulated) capacities.
	WifiMbps, LteMbps float64
	// WifiLoss is random loss on the congested public WiFi.
	WifiLoss float64
	// Seed drives the run's jitter processes.
	Seed uint64
}

// wildWifi approximates the sorted per-run WiFi conditions behind
// Fig 22a. A public AP's RTT inflation comes from congestion, so high
// average RTT co-occurs with low usable bandwidth — the regime where the
// paper's default scheduler loses throughput to WiFi chunk tails while
// ECF shifts nearly everything to LTE.
var wildWifi = []struct {
	rtt  time.Duration
	mbps float64
}{
	{65 * time.Millisecond, 9.0},
	{72 * time.Millisecond, 8.5},
	{120 * time.Millisecond, 5.0},
	{200 * time.Millisecond, 3.5},
	{300 * time.Millisecond, 2.5},
	{430 * time.Millisecond, 2.0},
	{560 * time.Millisecond, 1.5},
	{720 * time.Millisecond, 1.2},
	{950 * time.Millisecond, 1.0},
}

// WildStreamingRuns returns the nine §6.2 runs.
func WildStreamingRuns() []WildRun {
	out := make([]WildRun, len(wildWifi))
	for i, w := range wildWifi {
		out[i] = WildRun{
			Index:    i + 1,
			WifiRTT:  w.rtt,
			LteRTT:   70 * time.Millisecond,
			WifiMbps: w.mbps,
			LteMbps:  8.6,
			WifiLoss: 0.002,
			Seed:     uint64(i + 1),
		}
	}
	return out
}

// WildWebRuns returns n §6.3 runs with WiFi conditions cycling through
// the observed spread.
func WildWebRuns(n int) []WildRun {
	out := make([]WildRun, n)
	for i := 0; i < n; i++ {
		w := wildWifi[i%len(wildWifi)]
		out[i] = WildRun{
			Index:    i + 1,
			WifiRTT:  w.rtt,
			LteRTT:   70 * time.Millisecond,
			WifiMbps: w.mbps,
			LteMbps:  8.6,
			WifiLoss: 0.002,
			Seed:     uint64(1000 + i),
		}
	}
	return out
}

// Paths converts a wild run to a topology spec.
func (w WildRun) Paths() []core.PathSpec {
	return []core.PathSpec{
		{Name: "wifi", RateMbps: w.WifiMbps, BaseRTT: w.WifiRTT, LossRate: w.WifiLoss},
		{Name: "lte", RateMbps: w.LteMbps, BaseRTT: w.LteRTT},
	}
}

// InstallRTTJitter perturbs a path's propagation delay around its base
// value with a bounded random walk, re-drawn every interval until the
// given virtual time. This gives the RTT estimators realistic variance
// (the σ in ECF's δ margin) in wild scenarios.
//
// The ticks are daemon events (sim.Engine.ScheduleDaemon): a tick only
// sets the delay the next packet will read and schedules the next tick,
// so once nothing else is pending no tick can change anything a cell
// reports. A cell that ends with core.Network.RunQuiet therefore stops
// with its last packet instead of ticking to until; under Run and RunAll
// the walk runs its full length.
func InstallRTTJitter(net *core.Network, pathIdx int, base time.Duration, amplitude float64, interval time.Duration, seed uint64, until time.Duration) {
	paths := net.Paths()
	if pathIdx < 0 || pathIdx >= len(paths) {
		panic(fmt.Sprintf("trace: RTT jitter on path %d of a %d-path network", pathIdx, len(paths)))
	}
	if base <= 0 || interval <= 0 || until <= 0 {
		panic(fmt.Sprintf("trace: non-positive RTT jitter base %v, interval %v or until %v on path %q", base, interval, until, paths[pathIdx].Name()))
	}
	if amplitude < 0 {
		panic(fmt.Sprintf("trace: negative RTT jitter amplitude %v on path %q", amplitude, paths[pathIdx].Name()))
	}
	j := &rttJitter{
		eng:       net.Engine(),
		path:      paths[pathIdx],
		rng:       sim.NewRNG(seed ^ 0x177e),
		base:      base,
		amplitude: amplitude,
		interval:  interval,
		until:     until,
	}
	j.eng.ScheduleDaemon(0, kindRTTJitter, j)
}

// rttJitter is the state of one installed jitter process: a bounded
// random walk re-armed every interval until the horizon.
type rttJitter struct {
	eng       *sim.Engine
	path      *netsim.Path
	rng       *sim.RNG
	base      time.Duration
	amplitude float64
	interval  time.Duration
	until     time.Duration
	level     float64 // walk state in [-1, 1]
}

// kindRTTJitter dispatches a jitter step through the typed event table.
var kindRTTJitter sim.EventKind

func init() {
	kindRTTJitter = sim.RegisterKind("trace.rttJitter", func(a any) { a.(*rttJitter).step() })
}

func (j *rttJitter) step() {
	j.level += (j.rng.Float64()*2 - 1) * 0.5
	if j.level > 1 {
		j.level = 1
	}
	if j.level < -1 {
		j.level = -1
	}
	d := time.Duration(float64(j.base) * (1 + j.amplitude*j.level) / 2)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	j.path.Forward().SetDelay(d)
	j.path.Reverse().SetDelay(d)
	if j.eng.Now()+j.interval < j.until {
		j.eng.ScheduleDaemon(j.interval, kindRTTJitter, j)
	}
}
