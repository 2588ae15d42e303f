package tcp

import (
	"repro/internal/netsim"
	"repro/internal/ring"
)

// MetaSink is the connection-level receiver a subflow receiver reports
// into. It returns the piggyback fields for the outgoing ACK: the
// cumulative data-level acknowledgement and the advertised receive window.
type MetaSink interface {
	OnData(p *netsim.Packet) (dataAck, window int64)
}

// SubflowRecv is the receive side of one subflow: it reassembles the
// subflow-level byte stream, acknowledges every arriving data packet
// at once with a cumulative ACK (with a SACK-style "hole present" hint
// that drives the sender's duplicate-ACK counting) and forwards the
// packet to the connection-level receiver for DSN-level reordering.
type SubflowRecv struct {
	path *netsim.Path
	meta MetaSink

	expected int64
	// buffered holds the out-of-order segments as a seq-ordered ring
	// sliding with the cumulative ACK point — no per-packet map hashing;
	// the in-order common case never touches it.
	buffered ring.Reorder[struct{}]

	acksSent int64

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
func NewSubflowRecv(path *netsim.Path, meta MetaSink) *SubflowRecv {
	r := &SubflowRecv{}
	r.Reset(path, meta)
	return r
}

// Reset rebinds a pooled receiver to a path and meta sink, restoring
// the state NewSubflowRecv would construct: sequence zero, an empty
// reorder buffer (capacity kept), zeroed counters.
func (r *SubflowRecv) Reset(path *netsim.Path, meta MetaSink) {
	r.path = path
	r.meta = meta
	r.expected = 0
	r.buffered.Reset()
	r.acksSent = 0
	r.ackScratch = netsim.Packet{}
	r.duplicates = 0
}

// OnPacket handles one arriving data packet and emits its ACK.
func (r *SubflowRecv) OnPacket(p *netsim.Packet) {
	if p.Kind != netsim.Data {
		return
	}
	switch {
	case p.Seq == r.expected:
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
	r.sendAck(p, dataAck, window)
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
