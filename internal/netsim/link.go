package netsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Receiver consumes packets that survive a link traversal. The packet
// is passed by pointer so the ~100-byte struct is not re-copied at
// every hop of the delivery chain (link → demux → subflow → connection);
// the pointee is only valid for the duration of the call — receivers
// that retain a packet must copy it.
type Receiver func(*Packet)

// LinkStats aggregates per-link counters.
type LinkStats struct {
	Sent      int64 // packets accepted onto the link
	Delivered int64 // packets handed to the receiver
	Dropped   int64 // queue-overflow drops
	Lost      int64 // random-loss drops
	Bytes     int64 // payload+header bytes delivered
}

// totalDelivered accumulates, across every link in the process, the
// delivered-packet counts of finished cells (flushed by FlushStats,
// which core.Network.Close and Link.reset both invoke). Together with
// sim.TotalEvents it yields the events/packet telemetry ecfbench
// reports.
var totalDelivered atomic.Int64

// TotalDelivered returns the process-wide count of packets delivered by
// links whose stats have been flushed (a cell flushes when its network
// is closed).
func TotalDelivered() int64 { return totalDelivered.Load() }

// flight is one in-flight packet: accepted onto the link, not yet
// delivered. departure is when it finishes serialization (freeing queue
// space); arrival is when it reaches the receiver. Both carry tickets
// reserved at Send time — exactly where the former per-sub-event queue
// entries obtained their sequence numbers, which is what keeps
// same-timestamp ordering (and therefore experiment output)
// byte-identical across this rewrite. Only the arrival is ever
// scheduled: departures run no model-visible code, so they are
// accounted lazily from the dep cursor, with depTk fixing exactly
// where in the same-instant dispatch order the queue space frees (see
// advanceDeparted).
type flight struct {
	pkt       Packet
	departure sim.Time
	arrival   sim.Time
	depTk     sim.Ticket
	arrTk     sim.Ticket
}

// Link is a unidirectional rate-shaped channel: a drop-tail FIFO feeding a
// serializer at Rate bits/s, followed by fixed propagation Delay.
//
// The queue limit bounds the bytes waiting for or in serialization, which
// is what produces the bufferbloat the paper measures in Table 2 (a 0.3
// Mbps link behind tens of kilobytes of buffer shows ~1 s RTTs).
//
// Internally the link keeps its in-flight packets in a ring buffer and
// schedules only deliveries: departures (queue-space release) are pure
// link-internal accounting, advanced lazily from the dep cursor whenever
// the queue occupancy is next consulted, so they cost no queue events at
// all. Deliveries funnel through one self-rescheduling drain event that
// batches back-to-back arrivals: after delivering the head packet the
// drain claims each successor inline via sim.RunsNext — succeeding
// exactly when that delivery would have been the engine's next dispatch
// anyway — so an uncontended link drains a whole serialization run in
// one event without perturbing a single tie-break. Steady-state
// forwarding allocates nothing — see the allocs-per-packet regression
// test.
type Link struct {
	eng  *sim.Engine
	name string

	rate       float64 // bits per second
	delay      time.Duration
	queueLimit int // bytes
	queued     int // bytes waiting or in serialization
	busyUntil  sim.Time
	// lastArrival enforces FIFO delivery: a mid-flight propagation-delay
	// decrease (RTT jitter) must not let later packets overtake earlier
	// ones.
	lastArrival sim.Time
	lossRate    float64
	rng         *sim.RNG
	dst         Receiver

	// ring holds in-flight packets addressed by absolute counters:
	// [head, tail) are accepted-but-undelivered entries, of which
	// [head, dep) have departed the serializer. head <= dep <= tail.
	ring ring.Ring[flight]
	head uint64
	dep  uint64
	tail uint64

	// drainTimer is the single pending drain event (inactive when nothing
	// is in flight), armed at the head arrival under its reserved ticket.
	// Arrivals are FIFO-monotone in both time and ticket, so an armed
	// timer never needs to move up. draining suppresses re-arming while
	// the drain itself runs.
	drainTimer sim.Timer
	draining   bool

	// flushedDelivered is the high-water mark of stats.Delivered already
	// added to the process-wide total, so FlushStats is idempotent.
	flushedDelivered int64

	stats LinkStats
}

// kindLinkDrain dispatches the drain event through the typed event
// table.
var kindLinkDrain sim.EventKind

func init() {
	kindLinkDrain = sim.RegisterKind("netsim.Link.drain", func(a any) { a.(*Link).drain() })
}

// LinkConfig parameterizes a Link.
type LinkConfig struct {
	// Name labels the link in telemetry ("wifi:fwd").
	Name string
	// RateBps is the shaping rate in bits per second. Must be positive.
	RateBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes is the drop-tail buffer size. Zero selects a default of
	// 64 KiB.
	QueueBytes int
	// LossRate is an i.i.d. random-loss probability in [0,1), applied on
	// delivery (in addition to queue drops).
	LossRate float64
	// Seed seeds the loss process. Only used when LossRate > 0.
	Seed uint64
}

// NewLink builds a Link on the given engine. The receiver may be set later
// via SetReceiver but must be non-nil before the first Send.
func NewLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *Link {
	l := &Link{eng: eng}
	l.reset(cfg, dst)
	return l
}

// reset reconfigures the link in place to the state NewLink(eng, cfg,
// dst) would construct: empty queue, idle serializer, reseeded loss
// process, zeroed stats (flushed into the process totals first). The
// in-flight ring keeps its grown capacity. The caller must have reset
// (or drained) the engine first — any pending drain event of the
// previous run would otherwise fire into the reset link.
func (l *Link) reset(cfg LinkConfig, dst Receiver) {
	if cfg.RateBps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %v for link %q", cfg.RateBps, cfg.Name))
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 64 * 1024
	}
	l.FlushStats()
	l.name = cfg.Name
	l.rate = cfg.RateBps
	l.delay = cfg.Delay
	l.queueLimit = cfg.QueueBytes
	l.queued = 0
	l.busyUntil = 0
	l.lastArrival = 0
	l.lossRate = cfg.LossRate
	if cfg.LossRate > 0 {
		if l.rng == nil {
			l.rng = sim.NewRNG(cfg.Seed + 0x9d5f)
		} else {
			l.rng.Reseed(cfg.Seed + 0x9d5f)
		}
	} else {
		l.rng = nil
	}
	l.dst = dst
	l.head, l.dep, l.tail = 0, 0, 0
	l.drainTimer = sim.Timer{}
	l.draining = false
	l.stats = LinkStats{}
	l.flushedDelivered = 0
}

// FlushStats adds the link's not-yet-flushed delivered-packet count into
// the process-wide total (see TotalDelivered). Idempotent; called by
// Reset and by core.Network.Close so finished cells are counted exactly
// once.
func (l *Link) FlushStats() {
	if d := l.stats.Delivered - l.flushedDelivered; d > 0 {
		totalDelivered.Add(d)
		l.flushedDelivered = l.stats.Delivered
	}
}

// observe records one per-packet event (enqueue, drop, deliver, loss,
// coalesced delivery) into the engine's recorder; callers guard with
// l.eng.Recorder() != nil so an untraced cell never reaches the call.
func (l *Link) observe(op obs.PacketOp, p *Packet) {
	l.eng.Recorder().Packets.Record(obs.PacketEvent{
		At:          l.eng.Now(),
		Op:          op,
		Link:        l.name,
		ConnID:      p.ConnID,
		SubflowID:   p.SubflowID,
		Seq:         p.Seq,
		DSN:         p.DSN,
		Size:        p.Size,
		QueuedBytes: l.queued,
		Retransmit:  p.Retransmit,
	})
}

// RateBps returns the current shaping rate.
func (l *Link) RateBps() float64 { return l.rate }

// Delay returns the propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// QueueBytes returns the configured buffer size.
func (l *Link) QueueBytes() int { return l.queueLimit }

// queuedBytes returns the bytes currently waiting or in serialization.
func (l *Link) queuedBytes() int {
	l.advanceDeparted()
	return l.queued
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetReceiver installs the delivery callback.
func (l *Link) SetReceiver(dst Receiver) { l.dst = dst }

// setRateBps changes the shaping rate. Packets already in serialization
// keep their departure times; subsequent packets use the new rate. This is
// how the §5.3 random bandwidth-change scenarios are driven.
func (l *Link) setRateBps(rate float64) {
	if rate <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %v for link %q", rate, l.name))
	}
	l.rate = rate
}

// SetLossRate changes the random loss probability.
func (l *Link) SetLossRate(p float64) {
	l.lossRate = p
	if p > 0 && l.rng == nil {
		l.rng = sim.NewRNG(0x9d5f)
	}
}

// SetDelay changes the propagation delay for subsequent packets.
func (l *Link) SetDelay(d time.Duration) { l.delay = d }

// advanceDeparted applies all serializer departures that the former
// eager scheme would have dispatched by this point in the run: a packet
// stops occupying queue space once its departure key (departure time,
// depTk) precedes the event being dispatched right now. The ticket
// comparison is what makes the lazy scheme exact — an observer running
// at the same instant as a departure but at an earlier tie-break
// position must still see the packet in the queue, or a borderline
// drop-tail decision flips relative to the event-per-departure
// schedule. Deferring the accounting to the next occupancy check
// (Send's drop test, queuedBytes) is then observationally identical,
// at zero event-queue traffic.
func (l *Link) advanceDeparted() {
	now := l.eng.Now()
	cur := l.eng.CurrentTicket()
	for l.dep < l.tail {
		f := l.at(l.dep)
		if f.departure > now || (f.departure == now && f.depTk > cur) {
			break
		}
		l.queued -= f.pkt.Size
		l.dep++
	}
}

// Send enqueues a packet. It returns false when the drop-tail buffer is
// full and the packet was discarded. The packet is copied exactly once —
// straight into the in-flight ring slot; the caller keeps ownership of
// the pointee.
func (l *Link) Send(p *Packet) bool {
	if l.dst == nil {
		panic("netsim: Send on link with nil receiver")
	}
	if p.Size <= 0 {
		panic("netsim: Send with non-positive packet size")
	}
	l.advanceDeparted()
	if l.queued+p.Size > l.queueLimit {
		l.stats.Dropped++
		if l.eng.Recorder() != nil {
			l.observe(obs.PktDrop, p)
		}
		return false
	}
	l.stats.Sent++
	l.queued += p.Size
	if l.eng.Recorder() != nil {
		l.observe(obs.PktEnqueue, p)
	}

	now := l.eng.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	txTime := time.Duration(float64(p.Size*8) / l.rate * float64(time.Second))
	if txTime <= 0 {
		txTime = time.Nanosecond
	}
	l.busyUntil = start + txTime
	departure := l.busyUntil
	arrival := departure + l.delay
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival

	// Fill the ring slot in place: one packet copy, no flight struct
	// traveling down the stack.
	f := l.ring.PushRef(l.head, l.tail)
	l.tail++
	f.pkt = *p
	f.departure = departure
	f.arrival = arrival
	f.depTk = l.eng.ReserveTicket()
	f.arrTk = l.eng.ReserveTicket()
	// Arrivals are FIFO-monotone in (time, ticket), so an already-armed
	// timer is never late; arm only when idle. A Send landing inside a
	// running drain (a receiver forwarding back onto this link) leaves
	// arming to the drain loop, which re-checks the ring on exit.
	if !l.draining && !l.drainTimer.Active() {
		h := l.at(l.head)
		l.drainTimer = l.eng.AtTicket(h.arrival, h.arrTk, kindLinkDrain, l)
	}
	return true
}

// at returns the in-flight entry with absolute index k.
func (l *Link) at(k uint64) *flight {
	return l.ring.At(k)
}

// drain delivers the head packet, then keeps delivering successors
// inline for as long as the engine confirms (sim.RunsNext) that each
// would have been its next dispatch anyway — so a run of back-to-back
// arrivals on an uncontended link costs one queue event, while any
// interleaved same-instant event from another model (an ACK arrival on
// the reverse path, a pacer shot) breaks the batch exactly where the
// unbatched schedule would have interleaved it. The first refused claim
// re-arms the timer under that arrival's reserved ticket, so it
// competes in the queue precisely as its own event always did.
func (l *Link) drain() {
	l.drainTimer = sim.Timer{}
	if l.head >= l.tail {
		return
	}
	l.draining = true
	for {
		// The departure key of the packet being delivered (and of any
		// earlier one) precedes this dispatch, so its queue space frees
		// here: advanceDeparted moves dep past head.
		l.advanceDeparted()
		// Deliver straight out of the ring slot — zero copies. The head
		// cursor is advanced only after delivery returns, so a reentrant
		// Send cannot reuse the slot: while the head is still live, a
		// push into a full ring grows it, and growing copies the buffer
		// out rather than overwriting it, which keeps the delivered
		// pointee intact for the rest of the receiver chain.
		l.deliver(&l.at(l.head).pkt)
		l.head++
		if l.head >= l.tail {
			break
		}
		n := l.at(l.head)
		if !l.eng.RunsNext(n.arrival, n.arrTk) {
			l.drainTimer = l.eng.AtTicket(n.arrival, n.arrTk, kindLinkDrain, l)
			break
		}
		if l.eng.Recorder() != nil {
			l.observe(obs.PktCoalesce, &n.pkt)
		}
	}
	l.draining = false
}

// deliver applies the loss process and hands the packet to the receiver.
func (l *Link) deliver(p *Packet) {
	if l.lossRate > 0 && l.rng.Float64() < l.lossRate {
		l.stats.Lost++
		if l.eng.Recorder() != nil {
			l.observe(obs.PktLoss, p)
		}
		return
	}
	l.stats.Delivered++
	l.stats.Bytes += int64(p.Size)
	if l.eng.Recorder() != nil {
		l.observe(obs.PktDeliver, p)
	}
	l.dst(p)
}
