package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/ring"
	"repro/internal/sim"
)

// MetaSink is the connection-level receiver a subflow receiver reports
// into. It returns the piggyback fields for the outgoing ACK: the
// cumulative data-level acknowledgement and the advertised receive window.
type MetaSink interface {
	OnData(p *netsim.Packet) (dataAck, window int64)
	// Snapshot returns the current piggyback fields without consuming a
	// packet (delayed ACKs read it when their timer fires).
	Snapshot() (dataAck, window int64)
}

// SubflowRecv is the receive side of one subflow: it reassembles the
// subflow-level byte stream, generates cumulative ACKs (with a SACK-style
// "hole present" hint that drives the sender's duplicate-ACK counting)
// and forwards every arriving data packet to the connection-level
// receiver for DSN-level reordering.
type SubflowRecv struct {
	eng  *sim.Engine
	path *netsim.Path
	meta MetaSink

	expected int64
	// buffered holds the out-of-order segments as a seq-ordered ring
	// sliding with the cumulative ACK point — no per-packet map hashing;
	// the in-order common case never touches it.
	buffered ring.Reorder[struct{}]

	// DelayedAcks enables RFC 1122-style ACK coalescing: in-order
	// arrivals are acknowledged every second segment or after 40 ms,
	// while out-of-order arrivals (and arrivals that fill holes) are
	// acknowledged immediately per RFC 5681. Off by default — the
	// experiments model per-packet ACKs as most handsets disable
	// delayed ACKs for small RTT-sensitive flows — but available for
	// realism studies.
	DelayedAcks bool

	pendingAck  bool
	pendingPkt  netsim.Packet
	delayTimer  sim.Timer
	acksSent    int64
	acksDelayed int64

	// ackScratch is the outgoing ACK under construction. sendAck
	// overwrites every ACK field on each send and never touches the
	// data fields (they stay zero), so reusing one struct avoids
	// building and copying a ~100-byte literal per ACK.
	ackScratch netsim.Packet

	// stats
	duplicates int64
}

// NewSubflowRecv builds the receive side. The caller wires OnPacket to
// the path's forward direction (directly, or through a netsim.Demux when
// links are shared across connections).
func NewSubflowRecv(eng *sim.Engine, path *netsim.Path, meta MetaSink) *SubflowRecv {
	r := &SubflowRecv{eng: eng}
	r.Reset(path, meta)
	return r
}

// Reset rebinds a pooled receiver to a path and meta sink, restoring
// the state NewSubflowRecv would construct: sequence zero, an empty
// reorder buffer (capacity kept), no pending delayed ACK, zeroed
// counters. The engine must have been reset first (it owned the
// delayed-ACK timer).
func (r *SubflowRecv) Reset(path *netsim.Path, meta MetaSink) {
	r.path = path
	r.meta = meta
	r.expected = 0
	r.buffered.Reset()
	r.DelayedAcks = false
	r.pendingAck = false
	r.pendingPkt = netsim.Packet{}
	r.delayTimer = sim.Timer{}
	r.acksSent = 0
	r.acksDelayed = 0
	r.ackScratch = netsim.Packet{}
	r.duplicates = 0
}

// Expected returns the next subflow-level byte the receiver is waiting
// for (the value it advertises as the cumulative ACK).
func (r *SubflowRecv) Expected() int64 { return r.expected }

// Duplicates returns the count of redundant segment arrivals.
func (r *SubflowRecv) Duplicates() int64 { return r.duplicates }

// AcksSent returns the number of ACK packets emitted.
func (r *SubflowRecv) AcksSent() int64 { return r.acksSent }

// AcksDelayed returns how many arrivals were coalesced by delayed ACKs.
func (r *SubflowRecv) AcksDelayed() int64 { return r.acksDelayed }

// OnPacket handles one arriving data packet and emits (or schedules) an
// ACK.
func (r *SubflowRecv) OnPacket(p *netsim.Packet) {
	if p.Kind != netsim.Data {
		return
	}
	inOrder := p.Seq == r.expected
	switch {
	case inOrder:
		// The buffered block never contains the expected seq (the drain
		// below always consumes it), so an in-order arrival is never a
		// duplicate: advance directly and drain any adjacent segments.
		r.expected += int64(p.PayloadLen)
		for {
			l, _, ok := r.buffered.PopAt(r.expected)
			if !ok {
				break
			}
			r.expected += int64(l)
		}
	case p.Seq > r.expected:
		if !r.buffered.Insert(p.Seq, p.PayloadLen, struct{}{}) {
			r.duplicates++
		}
	default:
		r.duplicates++
	}
	dataAck, window := r.meta.OnData(p)

	if r.DelayedAcks && inOrder && r.buffered.Len() == 0 && !r.pendingAck {
		// First of a potential pair: hold the ACK briefly.
		r.pendingAck = true
		r.pendingPkt = *p
		r.acksDelayed++
		r.delayTimer = r.eng.ScheduleEvent(40*time.Millisecond, kindDelayedAck, r)
		return
	}
	// A second arrival before the 40 ms timer supersedes the held ACK in
	// this very dispatch: the pending flush is cancelled eagerly and the
	// fresher cumulative ACK goes out now, so a same-instant delayed-ACK
	// flush never costs its own event.
	r.cancelPending()
	r.sendAck(p, dataAck, window)
}

// kindDelayedAck dispatches the delayed-ACK timer through the typed
// event table.
var kindDelayedAck sim.EventKind

func init() {
	kindDelayedAck = sim.RegisterKind("tcp.SubflowRecv.delayedAck", func(a any) { a.(*SubflowRecv).flushPending() })
}

// cancelPending drops the held ACK state (a fresher ACK supersedes it).
func (r *SubflowRecv) cancelPending() {
	r.delayTimer.Cancel()
	r.delayTimer = sim.Timer{}
	r.pendingAck = false
}

// flushPending emits the held ACK after the delay timer fires.
func (r *SubflowRecv) flushPending() {
	if !r.pendingAck {
		return
	}
	p := r.pendingPkt
	r.cancelPending()
	dataAck, window := r.meta.Snapshot()
	r.sendAck(&p, dataAck, window)
}

// sendAck emits one cumulative acknowledgement.
func (r *SubflowRecv) sendAck(p *netsim.Packet, dataAck, window int64) {
	r.acksSent++
	ack := &r.ackScratch
	ack.Kind = netsim.Ack
	ack.Size = ackBytes
	ack.ConnID = p.ConnID
	ack.SubflowID = p.SubflowID
	ack.AckSeq = r.expected
	ack.DataAck = dataAck
	ack.Window = window
	ack.EchoSentAt = p.SentAt
	ack.EchoRetransmit = p.Retransmit
	ack.SackHole = r.buffered.Len() > 0
	r.path.Reverse().Send(ack)
}
