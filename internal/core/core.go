// Package core is the public facade of the reproduction: it assembles
// network paths, MPTCP connections, congestion control and a path
// scheduler into a runnable simulation. The experiment drivers build on
// this package.
//
// A minimal session:
//
//	net := core.NewNetwork(core.DefaultPaths(8.6, 8.6))
//	conn := net.NewConn(core.ConnOptions{Scheduler: "ecf"})
//	conn.Request(1<<20, func(tr *mptcp.Transfer) { ... })
//	net.Run(30 * time.Second)
//
// # Pooled lifecycle contract
//
// The whole per-cell object graph is pooled. NewNetwork draws a
// previously closed network from a process-wide pool and resets it in
// place; only the first network a worker builds touches the allocator.
// The contract has two halves:
//
//   - Reset guarantees construction equivalence: every reused object is
//     restored to exactly the state a cold construction would produce —
//     link serializers idle and loss RNGs reseeded, demux routes
//     cleared, subflows at the initial window with fresh RTT
//     estimators, schedulers with their dynamic state cleared (via
//     mptcp.Resettable), congestion controllers with no registered
//     flows, receivers at sequence zero with truncated telemetry.
//     Capacities (rings, reorder buffers, segment and transfer pools,
//     the engine's timer arena and event queue, telemetry series) are
//     retained; values are not. A pooled cell is therefore
//     byte-identical to a fresh one — the determinism and golden-hash
//     tests in internal/experiments pin this, and
//     core.TestSteadyStateAllocsPerCell pins the ~0 allocs/cell
//     steady state.
//
//   - Close reclaims everything at once: connections (with their
//     subflow units, segment pools and transfer pools) go to the
//     network's connection free list, schedulers and congestion
//     controllers file into per-registry-name free lists, the engine
//     is reset — cancelling all pending events and invalidating every
//     sim.Timer handle — a recorder installed by Observe is detached
//     from every object it reached, and the network returns to the
//     package pool, so no pooled object carries a recorder into its
//     next cell.
//     After Close, the network, its connections, mptcp.Transfer
//     handles and any telemetry slices obtained from its receivers
//     (Receiver.OOODelays, SubflowBytes) are off-limits:
//     another worker may already be resetting them. Copy results out
//     first (the experiment drivers copy reorder telemetry into
//     metrics sample-pool buffers for exactly this reason).
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/mptcp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// PathSpec describes one network path (one interface pair).
type PathSpec struct {
	// Name labels the path ("wifi", "lte").
	Name string
	// RateMbps is the forward bandwidth in megabits per second.
	RateMbps float64
	// BaseRTT is the zero-load round-trip time; each direction gets half
	// as propagation delay.
	BaseRTT time.Duration
	// LossRate is i.i.d. forward loss probability.
	LossRate float64
	// Seed perturbs the loss process (experiment repetitions vary it).
	Seed uint64
}

// defaultQueueBytes sizes every path's drop-tail buffers. 48 KiB at
// 0.3 Mbps is ~1.3 s of queueing when full, which calibrates the
// RTT-vs-bandwidth inflation to the paper's Table 2 and matches the
// bufferbloat it measures on its slowest setting.
const defaultQueueBytes = 48 * 1024

// WiFiBaseRTT and LTEBaseRTT are the zero-load RTTs used by the standard
// two-path topology; they are calibrated so that measured RTTs under load
// approximate the paper's Table 2 (WiFi 40 ms, LTE 105 ms at 8.6 Mbps).
const (
	WiFiBaseRTT = 20 * time.Millisecond
	LTEBaseRTT  = 80 * time.Millisecond
)

// DefaultPaths returns the paper's standard two-path topology: WiFi
// (primary) and LTE with the given forward bandwidths in Mbps.
func DefaultPaths(wifiMbps, lteMbps float64) []PathSpec {
	return []PathSpec{
		{Name: "wifi", RateMbps: wifiMbps, BaseRTT: WiFiBaseRTT},
		{Name: "lte", RateMbps: lteMbps, BaseRTT: LTEBaseRTT},
	}
}

// pathPort bundles a path with its shared demultiplexers. The receiver
// funcs are method values created once per port, so a pooled network
// re-wires its links without allocating fresh closures every cell.
type pathPort struct {
	path    *netsim.Path
	fwd     *netsim.Demux
	rev     *netsim.Demux
	fwdRecv netsim.Receiver // fwd.OnPacket
	revRecv netsim.Receiver // rev.OnPacket
}

// connSlot tracks one live connection together with the pool keys of
// its scheduler and congestion controller (registry names, recorded at
// NewConn time), so Close can file both back under the right free list.
type connSlot struct {
	conn      *mptcp.Conn
	sched     mptcp.Scheduler // pooled instance, nil when caller-provided
	schedName string
	ctrlName  string
}

// Network is a simulated topology shared by any number of MPTCP
// connections.
//
// Networks are pooled: NewNetwork reuses the entire object graph of a
// previously closed network — engine (arena and event queue), links and
// their in-flight rings, demux tables, connections with their subflows,
// segment pools, reorder buffers, schedulers, congestion controllers
// and telemetry series — resetting everything in place to the state a
// cold construction would produce. A sweep of independent simulation
// cells therefore touches the allocator only while its first cell grows
// the working set; see the pooled-lifecycle contract on Close.
type Network struct {
	eng    *sim.Engine
	ports  []pathPort // live, one per spec
	spares []pathPort // retired by a Reset to fewer paths
	nextID int

	conns     []connSlot
	freeConns []*mptcp.Conn
	// freeScheds and freeCtrls are keyed by registry name — the request
	// key, not the instance's Name(), so e.g. a pooled "wifi-only"
	// (a SinglePath) is only ever handed out as "wifi-only".
	freeScheds map[string][]mptcp.Scheduler
	freeCtrls  map[string][]cc.Controller

	// obsRec, when non-nil, is the cell recorder this network's object
	// graph reports into — set by Observe, detached again by Close.
	obsRec *obs.CellRecorder

	closed bool
}

// netPool recycles whole networks across simulation cells — one warm
// object graph per worker, not one per cell.
var netPool = sync.Pool{New: func() any { return &Network{} }}

// NewNetwork builds the topology on a pooled network: the engine,
// links, connections and telemetry buffers of a previously closed
// network are reset in place and reused, so a sweep of independent
// simulation cells grows them once per worker instead of once per
// cell. Call Close when the simulation is done to return the graph; a
// network that is never closed simply keeps its objects out of the
// pool.
func NewNetwork(specs []PathSpec) *Network {
	n := netPool.Get().(*Network)
	if n.eng == nil {
		// The engine is built once per pooled network and rides inside
		// it for the network's whole pool lifetime (Close resets it in
		// place).
		n.eng = sim.New()
		n.freeScheds = make(map[string][]mptcp.Scheduler)
		n.freeCtrls = make(map[string][]cc.Controller)
	}
	n.closed = false
	n.nextID = 0
	n.Reset(specs)
	return n
}

// Observe makes rec the recorder of this network's whole object graph
// until Close: it installs the engine and link instrumentation now, and
// NewConn adds the subflow and scheduler halves as connections are
// created, so call it before the first NewConn. A network nobody
// observes carries no recorder at all.
func (n *Network) Observe(rec *obs.CellRecorder) {
	n.obsRec = rec
	n.eng.SetFlightRecorder(rec.Flight)
	for i := range n.ports {
		p := n.ports[i].path
		p.Forward().SetObserver(rec.Packets)
		p.Reverse().SetObserver(rec.Packets)
	}
}

// Reset rebuilds the topology in place over the network's pooled
// links and demultiplexers: port i is reconfigured to specs[i] exactly
// as NewNetwork would construct it, ports beyond len(specs) are parked
// for later reuse, and missing ports are created. The engine must be
// freshly reset (Close leaves it so); connections are not touched —
// Reset is the construction half of the NewNetwork/Close cycle.
func (n *Network) Reset(specs []PathSpec) {
	// Park or revive ports so len(n.ports) == len(specs).
	for len(n.ports) > len(specs) {
		last := len(n.ports) - 1
		n.spares = append(n.spares, n.ports[last])
		n.ports[last] = pathPort{}
		n.ports = n.ports[:last]
	}
	for len(n.ports) < len(specs) && len(n.spares) > 0 {
		last := len(n.spares) - 1
		n.ports = append(n.ports, n.spares[last])
		n.spares[last] = pathPort{}
		n.spares = n.spares[:last]
	}
	for i, s := range specs {
		cfg := netsim.PathConfig{
			Name:       s.Name,
			RateBps:    s.RateMbps * 1e6,
			Delay:      s.BaseRTT / 2,
			QueueBytes: defaultQueueBytes,
			LossRate:   s.LossRate,
			Seed:       s.Seed + uint64(i) + 1,
		}
		if i < len(n.ports) {
			port := &n.ports[i]
			port.path.Reset(cfg)
			port.fwd.Reset()
			port.rev.Reset()
			port.path.SetForwardReceiver(port.fwdRecv)
			port.path.SetReverseReceiver(port.revRecv)
			continue
		}
		p := netsim.NewPath(n.eng, cfg)
		port := pathPort{path: p, fwd: netsim.NewDemux(), rev: netsim.NewDemux()}
		port.fwdRecv = port.fwd.OnPacket
		port.revRecv = port.rev.OnPacket
		p.SetForwardReceiver(port.fwdRecv)
		p.SetReverseReceiver(port.revRecv)
		n.ports = append(n.ports, port)
	}
}

// Engine exposes the simulation engine (for timers and custom events).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Close reclaims the whole per-cell object graph for reuse: every
// connection's subflows detach from their congestion controller,
// schedulers and controllers file back into per-name free lists, the
// engine is reset (cancelling everything still scheduled and
// invalidating every Timer handle), and the network returns to the
// pool. The network, its connections, Transfer handles and any
// telemetry slices obtained from its receivers must not be used
// afterwards; results must be copied out before closing. Closing twice
// is a no-op.
func (n *Network) Close() {
	if n.closed {
		return
	}
	n.closed = true
	for i := range n.conns {
		s := &n.conns[i]
		// Detach instrumentation before the graph enters the pools: a
		// pooled object must never carry a recorder into its next cell
		// (Reset clears these too; this keeps the invariant even for
		// objects that sit in a pool without being reused).
		if n.obsRec != nil {
			sched.WireDecisionSink(s.conn.Scheduler(), nil)
			for _, sf := range s.conn.Subflows() {
				sf.SetObserver(nil)
			}
		}
		// Detach subflows from the controller (and stop their timers)
		// while the engine is still live.
		s.conn.Close()
		if s.sched != nil {
			n.freeScheds[s.schedName] = append(n.freeScheds[s.schedName], s.sched)
		}
		n.freeCtrls[s.ctrlName] = append(n.freeCtrls[s.ctrlName], s.conn.Controller())
		n.freeConns = append(n.freeConns, s.conn)
		*s = connSlot{}
	}
	n.conns = n.conns[:0]
	// Flush per-link delivery counts into the process totals before the
	// ports are reused — netsim.TotalDelivered feeds the events/packet
	// telemetry and must count every finished cell exactly once.
	for i := range n.ports {
		if p := n.ports[i].path; p != nil {
			p.Forward().FlushStats()
			p.Reverse().FlushStats()
		}
	}
	for i := range n.spares {
		if p := n.spares[i].path; p != nil {
			p.Forward().FlushStats()
			p.Reverse().FlushStats()
		}
	}
	if n.obsRec != nil {
		for i := range n.ports {
			if p := n.ports[i].path; p != nil {
				p.Forward().SetObserver(nil)
				p.Reverse().SetObserver(nil)
			}
		}
		n.obsRec = nil
	}
	// The engine reset below also drops its flight recorder.
	n.eng.Reset()
	netPool.Put(n)
}

// Paths returns the underlying paths in spec order.
func (n *Network) Paths() []*netsim.Path {
	out := make([]*netsim.Path, len(n.ports))
	for i, p := range n.ports {
		out[i] = p.path
	}
	return out
}

// SetRateMbps changes a path's forward bandwidth mid-run (the §5.3
// variable-bandwidth scenarios).
func (n *Network) SetRateMbps(pathIdx int, mbps float64) {
	n.ports[pathIdx].path.SetRateBps(mbps * 1e6)
}

// Run advances the simulation until the given virtual time.
func (n *Network) Run(until time.Duration) { n.eng.RunUntil(until) }

// RunQuiet advances the simulation until the network goes quiet — every
// pending event is a daemon (sim.Engine.RunUntilQuiet), so no packet is
// in flight, no pacer or retransmission timer armed and no application
// event waiting — and reports true, leaving the clock at the last thing
// that happened. If that has not come by the virtual-time limit it stops
// there and reports false. Cells whose result is fixed once their
// transfers finish end this way instead of ticking background processes
// on to a horizon.
func (n *Network) RunQuiet(limit time.Duration) bool { return n.eng.RunUntilQuiet(limit) }

// RunAll drains every pending event.
func (n *Network) RunAll() { n.eng.Run() }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.eng.Now() }

// ConnOptions parameterizes NewConn.
type ConnOptions struct {
	// Scheduler is a registered scheduler name ("minrtt", "ecf",
	// "blest", "daps", ...). Empty selects "minrtt".
	Scheduler string
	// SchedulerInstance overrides Scheduler with a concrete instance
	// (used by ablations that tweak scheduler parameters).
	SchedulerInstance mptcp.Scheduler
	// CongestionControl is "lia" (default), "olia" or "reno".
	CongestionControl string
	// SubflowsPerPath creates this many subflows over each path
	// (default 1; §5.2.5 uses 2).
	SubflowsPerPath int
	// Config replaces mptcp.DefaultConfig. Zero buffer sizes still
	// select the default, but IdleRestart is taken as set: a hand-built
	// Config that leaves it false runs with idle restart off. The ID is
	// assigned by the network.
	Config *mptcp.Config
}

// NewConn creates an MPTCP connection with one (or more) subflows over
// every network path, reviving a pooled connection — with its subflows,
// segment pools and telemetry buffers — when one is available.
func (n *Network) NewConn(opts ConnOptions) *mptcp.Conn {
	id := n.nextID
	n.nextID++

	cfg := mptcp.DefaultConfig(id)
	if opts.Config != nil {
		cfg = *opts.Config
		cfg.ID = id
	}

	ctrlName := opts.CongestionControl
	if ctrlName == "" {
		ctrlName = "lia"
	}
	ctrl := n.takeController(ctrlName)

	var conn *mptcp.Conn
	if k := len(n.freeConns); k > 0 {
		conn = n.freeConns[k-1]
		n.freeConns[k-1] = nil
		n.freeConns = n.freeConns[:k-1]
		conn.Reset(cfg, ctrl)
	} else {
		conn = mptcp.NewConn(n.eng, cfg, ctrl)
	}

	slot := connSlot{conn: conn, ctrlName: ctrlName}
	var schedr mptcp.Scheduler
	if opts.SchedulerInstance != nil {
		schedr = opts.SchedulerInstance
	} else {
		name := opts.Scheduler
		if name == "" {
			name = "minrtt"
		}
		schedr = n.takeScheduler(name)
		if res, ok := schedr.(mptcp.Resettable); ok {
			slot.sched = res
			slot.schedName = name
		}
	}
	conn.SetScheduler(schedr)
	n.conns = append(n.conns, slot)

	per := opts.SubflowsPerPath
	if per <= 0 {
		per = 1
	}
	for rep := 0; rep < per; rep++ {
		for i := range n.ports {
			port := &n.ports[i]
			name := port.path.Name()
			if per > 1 {
				name = fmt.Sprintf("%s#%d", name, rep)
			}
			conn.AddSubflow(name, port.path, port.fwd, port.rev)
		}
	}
	if n.obsRec != nil {
		sched.WireDecisionSink(schedr, n.obsRec.Decisions)
		for _, sf := range conn.Subflows() {
			sf.SetObserver(n.obsRec.Subflows)
		}
	}
	return conn
}

// takeController pops a pooled congestion controller for the given
// name, constructing one when the free list is empty. A reclaimed
// controller has had every flow unregistered, which is exactly the
// freshly-constructed state.
func (n *Network) takeController(name string) cc.Controller {
	if list := n.freeCtrls[name]; len(list) > 0 {
		ctrl := list[len(list)-1]
		list[len(list)-1] = nil
		n.freeCtrls[name] = list[:len(list)-1]
		return ctrl
	}
	switch name {
	case "lia":
		return cc.NewLIA()
	case "olia":
		return cc.NewOLIA()
	case "reno":
		return cc.NewReno()
	default:
		panic(fmt.Sprintf("core: unknown congestion control %q", name))
	}
}

// takeScheduler pops a pooled scheduler registered under name and
// resets it, constructing a fresh instance when the free list is empty.
// Only mptcp.Resettable instances ever enter the free lists, so the pop
// path always resets.
func (n *Network) takeScheduler(name string) mptcp.Scheduler {
	if list := n.freeScheds[name]; len(list) > 0 {
		s := list[len(list)-1]
		list[len(list)-1] = nil
		n.freeScheds[name] = list[:len(list)-1]
		s.(mptcp.Resettable).Reset()
		return s
	}
	f, err := sched.Factory(name)
	if err != nil {
		panic(err)
	}
	return f()
}
