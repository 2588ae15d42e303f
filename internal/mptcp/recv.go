package mptcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
)

// dsnWaiter completes its transfer once the in-order delivery point
// reaches dsn.
type dsnWaiter struct {
	dsn int64
	tr  *Transfer
}

// Receiver is the connection-level (data-sequence) receive side. It
// reassembles the data stream across subflows, advertises the receive
// window, and records the reordering telemetry the paper reports:
// out-of-order delays (Figures 13, 14, 21, 23b) and per-subflow arrival
// accounting (Figures 5, 7, 10).
type Receiver struct {
	eng    *sim.Engine
	rcvBuf int64

	expected int64
	// buffered holds the out-of-order segments as a DSN-ordered ring
	// sliding with the in-order delivery point; the value is the
	// segment's arrival time (for the OOO-delay telemetry). The in-order
	// common case never touches it.
	buffered      ring.Reorder[sim.Time]
	bufferedBytes int64

	waiters []dsnWaiter

	// ArrivalHook, when non-nil, observes every arriving data packet
	// before reassembly (the connection uses it for per-transfer
	// last-packet accounting). The packet pointer is only valid for the
	// duration of the call.
	ArrivalHook func(p *netsim.Packet, now sim.Time)

	// Telemetry. The per-subflow series are dense slices indexed by
	// subflow ID — IDs are small sequential integers assigned by the
	// connection — grown on first sight of an ID.
	oooDelays        []time.Duration
	perSubflowBytes  []int64
	lastArrival      []sim.Time // noArrival until the first data packet
	deliveredBytes   int64
	duplicateArrival int64
}

// noArrival marks a subflow that has not delivered any data yet in
// lastArrival (arrival times are always >= 0).
const noArrival = sim.Time(-1)

// newReceiver builds a receiver with the given receive-buffer size in
// bytes (the base of the advertised window); zero selects defaultBuf.
func newReceiver(eng *sim.Engine, rcvBuf int64) *Receiver {
	r := &Receiver{eng: eng}
	r.reset(rcvBuf)
	return r
}

// reset returns a pooled receiver to the state newReceiver(eng, rcvBuf)
// would construct: delivery point zero, empty reorder buffer and waiter
// list, truncated telemetry series. Every slice keeps its grown
// capacity, which is what makes the per-cell telemetry (OOO-delay
// samples, per-subflow byte logs) allocation-free in steady state — and
// why callers must copy any telemetry they keep before the owning
// network is closed. ArrivalHook is deliberately preserved: the owning
// connection binds it once for its lifetime.
func (r *Receiver) reset(rcvBuf int64) {
	if rcvBuf <= 0 {
		rcvBuf = defaultBuf
	}
	r.rcvBuf = rcvBuf
	r.expected = 0
	r.buffered.Reset()
	r.bufferedBytes = 0
	r.waiters = r.waiters[:0]
	r.oooDelays = r.oooDelays[:0]
	r.perSubflowBytes = r.perSubflowBytes[:0]
	r.lastArrival = r.lastArrival[:0]
	r.deliveredBytes = 0
	r.duplicateArrival = 0
}

// DeliveredBytes returns total in-order bytes handed to the application.
func (r *Receiver) DeliveredBytes() int64 { return r.deliveredBytes }

// window returns the currently advertised receive window.
func (r *Receiver) window() int64 {
	w := r.rcvBuf - r.bufferedBytes
	if w < 0 {
		w = 0
	}
	return w
}

// OOODelays returns the recorded out-of-order delay samples: for every
// first-arrival data packet, the time between its arrival and its
// in-order delivery to the application layer.
func (r *Receiver) OOODelays() []time.Duration { return r.oooDelays }

// SubflowBytes returns first-arrival payload bytes indexed by subflow
// ID (zero for subflows that carried nothing).
func (r *Receiver) SubflowBytes() []int64 { return r.perSubflowBytes }

// notifyTransfer arranges for the transfer to complete (via its owning
// connection) once the delivery point reaches its end DSN — at once if
// it already has.
func (r *Receiver) notifyTransfer(tr *Transfer) {
	if r.expected >= tr.EndDSN {
		tr.conn.completeTransfer(tr)
		return
	}
	r.insertWaiter(dsnWaiter{dsn: tr.EndDSN, tr: tr})
}

// insertWaiter places w in DSN order, after every waiter with an equal
// or lower DSN — the same order the former stable sort produced —
// shifting in place so a warm waiter slice allocates nothing.
func (r *Receiver) insertWaiter(w dsnWaiter) {
	lo, hi := 0, len(r.waiters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.waiters[mid].dsn <= w.dsn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	r.waiters = append(r.waiters, dsnWaiter{})
	copy(r.waiters[lo+1:], r.waiters[lo:len(r.waiters)-1])
	r.waiters[lo] = w
}

// fireWaiter pops and runs the frontmost waiter, compacting in place so
// the slice's backing array is reused forever.
func (r *Receiver) fireWaiter() {
	w := r.waiters[0]
	copy(r.waiters, r.waiters[1:])
	r.waiters[len(r.waiters)-1] = dsnWaiter{}
	r.waiters = r.waiters[:len(r.waiters)-1]
	w.tr.conn.completeTransfer(w.tr)
}

// touchSubflow grows the per-subflow telemetry slices to cover id.
func (r *Receiver) touchSubflow(id int) {
	for len(r.perSubflowBytes) <= id {
		r.perSubflowBytes = append(r.perSubflowBytes, 0)
		r.lastArrival = append(r.lastArrival, noArrival)
	}
}

// OnData implements tcp.MetaSink: it folds one arriving data packet into
// the reorder buffer and returns the data-level cumulative ACK and the
// advertised window for the outgoing subflow ACK.
func (r *Receiver) OnData(p *netsim.Packet) (dataAck, window int64) {
	now := r.eng.Now()
	r.touchSubflow(p.SubflowID)
	r.lastArrival[p.SubflowID] = now
	if r.ArrivalHook != nil {
		r.ArrivalHook(p, now)
	}

	switch {
	case p.DSN == r.expected:
		// In-order fast path: the buffered block never contains the
		// expected DSN (the drain below always consumes it), so this is
		// never a duplicate. Deliver directly — a zero OOO-delay
		// sample — then drain whatever became contiguous.
		length := int64(p.PayloadLen)
		r.perSubflowBytes[p.SubflowID] += length
		r.expected += length
		r.deliveredBytes += length
		r.oooDelays = append(r.oooDelays, 0)
		for {
			l, arrived, ok := r.buffered.PopAt(r.expected)
			if !ok {
				break
			}
			r.bufferedBytes -= int64(l)
			r.expected += int64(l)
			r.deliveredBytes += int64(l)
			r.oooDelays = append(r.oooDelays, now-arrived)
		}
	case p.DSN > r.expected:
		if r.buffered.Insert(p.DSN, p.PayloadLen, now) {
			r.bufferedBytes += int64(p.PayloadLen)
			r.perSubflowBytes[p.SubflowID] += int64(p.PayloadLen)
		} else {
			r.duplicateArrival++
		}
	default:
		r.duplicateArrival++
	}

	// Fire completion waiters in DSN order.
	for len(r.waiters) > 0 && r.waiters[0].dsn <= r.expected {
		r.fireWaiter()
	}

	return r.expected, r.window()
}
