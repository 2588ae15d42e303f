package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netsim"
	"repro/internal/results"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The layer probes drive one layer through its public functions with
// nothing else running and time it from outside. Each is repeated
// probeReps times inside spans; the metric is the median. Every
// parameter a probe draws comes from the run's seed, so one seed gives
// one set of inputs.
const (
	probeReps  = 3
	probeBytes = 200 << 20 // one bulk transfer: ~145 k data packets plus their ACKs
)

// probe is the traced run's view of one repetition: how long it took
// and how much work the layer counters saw.
type probe struct {
	wall   time.Duration
	events uint64 // sim events, dispatched + coalesced
	pkts   int64  // packets delivered by netsim links
	allocs uint64
}

// measure runs fn inside a span and reads the counters every layer
// already exports around it.
func (t *tracer) measure(name string, fn func()) probe {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0, c0 := sim.TotalEvents()
	d0 := netsim.TotalDelivered()
	wall := t.do(name, fn)
	p1, c1 := sim.TotalEvents()
	runtime.ReadMemStats(&m1)
	return probe{
		wall:   wall,
		events: (p1 - p0) + (c1 - c0),
		pkts:   netsim.TotalDelivered() - d0,
		allocs: m1.Mallocs - m0.Mallocs,
	}
}

// repeat runs a probe probeReps times and returns the median of
// per(probe), plus the first repetition for its counters.
func (t *tracer) repeat(name string, fn func(), per func(probe) float64) (float64, probe) {
	var xs []float64
	var first probe
	for i := 0; i < probeReps; i++ {
		t.iter = i
		p := t.measure(name, fn)
		if i == 0 {
			first = p
		}
		xs = append(xs, per(p))
	}
	t.iter = 0
	return median(xs), first
}

func nsPerPkt(p probe) float64   { return float64(p.wall.Nanoseconds()) / float64(p.pkts) }
func nsPerEvent(p probe) float64 { return float64(p.wall.Nanoseconds()) / float64(p.events) }

// nsPer divides a repetition's wall clock by a fixed amount of work.
func nsPer(n float64) func(probe) float64 {
	return func(p probe) float64 { return float64(p.wall.Nanoseconds()) / n }
}

// probeKind is registered in init: its handler refers back to it.
var probeKind sim.EventKind

func init() {
	probeKind = sim.RegisterKind("benchmark/probe", func(arg any) { arg.(*simProbe).fire() })
}

// simProbe keeps a fixed number of events pending: each dispatch
// schedules one successor at a seed-drawn delay until the budget is
// spent.
type simProbe struct {
	eng    *sim.Engine
	left   int
	next   int
	delays []time.Duration
}

func (p *simProbe) fire() {
	if p.left > 0 {
		p.left--
		p.eng.ScheduleEvent(p.delays[p.next%len(p.delays)], probeKind, p)
		p.next++
	}
}

// probeSim is sim.ns_per_event: one million ScheduleEvent + dispatch
// pairs with eight events pending, the depth the catalog runs at.
func (t *tracer) probeSim(rng *sim.RNG) float64 {
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(1+rng.Intn(1000)) * time.Microsecond
	}
	const events = 1_000_000
	eng := sim.New()
	v, _ := t.repeat("sim.Engine.Run", func() {
		p := &simProbe{eng: eng, left: events, delays: delays}
		for i := 0; i < 8; i++ {
			p.fire()
		}
		eng.Run()
	}, nsPer(events))
	return v
}

// probeLink is netsim.ns_per_pkt: half a million packets through one
// link with 64 kept in flight, so the pipe never idles.
func (t *tracer) probeLink(name string, rng *sim.RNG, loss float64) float64 {
	const total = 500_000
	cfg := netsim.LinkConfig{
		Name:       "probe",
		RateBps:    float64(50+rng.Intn(100)) * 1e6,
		Delay:      time.Duration(2+rng.Intn(8)) * time.Millisecond,
		QueueBytes: 1 << 20,
		LossRate:   loss,
		Seed:       rng.Uint64() | 1,
	}
	v, _ := t.repeat(name, func() {
		eng := sim.New()
		l := netsim.NewLink(eng, cfg, nil)
		pkt := netsim.Packet{Kind: netsim.Data, Size: 1200}
		sent := 0
		l.SetReceiver(func(*netsim.Packet) {
			if sent < total {
				sent++
				l.Send(&pkt)
			}
		})
		for i := 0; i < 64; i++ {
			sent++
			l.Send(&pkt)
		}
		// Losses shrink the window in flight; top it up until every
		// packet has been sent.
		for eng.Run(); sent < total; eng.Run() {
			sent++
			l.Send(&pkt)
		}
	}, nsPer(total))
	return v
}

// bulkStats are the connection counters of one bulk transfer.
type bulkStats struct {
	reinjections, penalties, windowStalls, waits int64
}

// bulk writes probeBytes over the given paths and runs the network dry.
func bulk(paths []core.PathSpec, opts core.ConnOptions) bulkStats {
	net := core.NewNetwork(paths)
	defer net.Close()
	conn := net.NewConn(opts)
	done := false
	conn.Write(probeBytes, func(*mptcp.Transfer) { done = true })
	net.RunAll()
	if !done {
		panic(fmt.Sprintf("benchmark: bulk probe over %d paths with %+v never finished", len(paths), opts))
	}
	st := bulkStats{reinjections: conn.Reinjections(), penalties: conn.Penalties(), windowStalls: conn.WindowStalls()}
	switch s := opts.SchedulerInstance.(type) {
	case *sched.ECF:
		st.waits = s.Waits()
	case *sched.BLEST:
		st.waits = s.Waits()
	}
	return st
}

// probeBulk times a bulk transfer and returns ns per delivered packet
// (data and ACKs, the ledger's unit) with the first repetition's
// counters.
func (t *tracer) probeBulk(name string, paths []core.PathSpec, opts func() core.ConnOptions) (float64, probe, bulkStats) {
	bulk(paths, opts()) // grow the pools to the working set
	var st bulkStats
	v, first := t.repeat(name, func() { st = bulk(paths, opts()) }, nsPerPkt)
	return v, first, st
}

// drawPaths draws the probes' two heterogeneous paths: a slow,
// short-RTT one and a fast, long-RTT one, the shape the paper's
// schedulers differ on.
func drawPaths(rng *sim.RNG) []core.PathSpec {
	return []core.PathSpec{
		{Name: "wifi", RateMbps: 1 + 3*rng.Float64(), BaseRTT: time.Duration(15+rng.Intn(20)) * time.Millisecond},
		{Name: "lte", RateMbps: 6 + 6*rng.Float64(), BaseRTT: time.Duration(60+rng.Intn(60)) * time.Millisecond},
	}
}

// schedulerOpts selects a scheduler: as an instance where the harness
// reads Waits from it afterwards, by registry name otherwise.
func schedulerOpts(name string) core.ConnOptions {
	switch name {
	case "ecf":
		return core.ConnOptions{SchedulerInstance: sched.NewECF()}
	case "blest":
		return core.ConnOptions{SchedulerInstance: sched.NewBLEST()}
	}
	return core.ConnOptions{Scheduler: name}
}

// probeShortFlows is tcp.short_flow_us: a thousand sequential 64 KB
// transfers on one connection with idle gaps between them, the wget
// shape (slow start, idle restart, RTO arming every time).
func (t *tracer) probeShortFlows(rng *sim.RNG) float64 {
	const flows = 1000
	path := []core.PathSpec{{Name: "wifi", RateMbps: float64(5 + rng.Intn(20)), BaseRTT: time.Duration(20+rng.Intn(40)) * time.Millisecond}}
	gap := time.Duration(1000+rng.Intn(2000)) * time.Millisecond
	v, _ := t.repeat("tcp.short_flows", func() {
		net := core.NewNetwork(path)
		defer net.Close()
		conn := net.NewConn(core.ConnOptions{Scheduler: "minrtt", CongestionControl: "reno"})
		left := flows
		var next func()
		next = func() {
			left--
			conn.Write(64<<10, func(*mptcp.Transfer) {
				if left > 0 {
					net.Engine().Schedule(gap, next)
				}
			})
		}
		next()
		net.RunAll()
		if left != 0 {
			panic("benchmark: short-flow probe stalled")
		}
	}, nsPer(flows))
	return v / 1e3
}

// probeCellSetup is core.cell_setup_us and core.allocs_per_cell: the
// NewNetwork + NewConn + Close cycle on a warm pool with no traffic.
func (t *tracer) probeCellSetup() (us, allocs float64) {
	const cells = 2000
	paths := core.DefaultPaths(8.6, 8.6)
	cycle := func() {
		net := core.NewNetwork(paths)
		net.NewConn(core.ConnOptions{Scheduler: "ecf"})
		net.Close()
	}
	cycle()
	v, first := t.repeat("core.cell_setup", func() {
		for i := 0; i < cells; i++ {
			cycle()
		}
	}, nsPer(cells))
	return v / 1e3, float64(first.allocs) / cells
}

// probeJitter is trace.jitter_ns_per_tick: the RTT random walk of the
// web experiments on an otherwise idle network, 60 s of virtual time at
// a 100 us interval on both paths.
func (t *tracer) probeJitter(rng *sim.RNG) float64 {
	seed := rng.Uint64()
	v, _ := t.repeat("trace.InstallRTTJitter", func() {
		net := core.NewNetwork(core.DefaultPaths(1, 10))
		defer net.Close()
		trace.InstallRTTJitter(net, 0, core.WiFiBaseRTT, 0.3, 100*time.Microsecond, seed, time.Minute)
		trace.InstallRTTJitter(net, 1, core.LTEBaseRTT, 0.2, 100*time.Microsecond, seed+1, time.Minute)
		net.Run(time.Minute)
	}, nsPerEvent)
	return v
}

// probeRecord is the results probes' payload, sized like the catalog's
// mean record (~23 KB of JSON).
type probeRecord struct {
	Name    string
	Samples []float64
}

// probeStore is results.put_us and results.get_us: 200 durable Puts and
// 200 Gets of a representative record in a scratch store.
func (t *tracer) probeStore(dir string, rng *sim.RNG) (putUs, getUs float64, err error) {
	store, err := results.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	rec := probeRecord{Name: "benchmark/probe", Samples: make([]float64, 1200)}
	for i := range rec.Samples {
		rec.Samples[i] = rng.Float64()
	}
	key := func(i int) results.Key {
		return results.Key{Experiment: "benchmark/probe", Cell: i, Schema: 1, Scale: "probe"}
	}
	const n = 200
	var puts, gets []float64
	for i := 0; i < n; i++ {
		var perr error
		d := t.do("results.Store.Put", func() { perr = store.Put(key(i), rec) })
		if perr != nil {
			return 0, 0, perr
		}
		puts = append(puts, float64(d.Nanoseconds())/1e3)
	}
	for i := 0; i < n; i++ {
		var got probeRecord
		ok := false
		d := t.do("results.Store.Get", func() { ok = store.Get(key(i), &got) })
		if !ok || len(got.Samples) != len(rec.Samples) {
			return 0, 0, fmt.Errorf("results probe: record %d did not read back", i)
		}
		gets = append(gets, float64(d.Nanoseconds())/1e3)
	}
	return median(puts), median(gets), nil
}
