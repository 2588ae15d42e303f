package obs

import "time"

// Ring is a fixed-capacity overwrite-oldest record buffer, one per
// record kind of a traced cell. The i-th record ever written lives at
// index i%cap, so once full the oldest record is at n%cap and a snapshot
// is two copies.
type Ring[T any] struct {
	buf []T
	n   uint64 // records ever written
}

func newRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Record appends one record, evicting the oldest when full.
func (r *Ring[T]) Record(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.n%uint64(cap(r.buf))] = v
	}
	r.n++
}

// Events returns the retained records, oldest first.
func (r *Ring[T]) Events() []T {
	out := make([]T, len(r.buf))
	if r.n <= uint64(len(r.buf)) {
		copy(out, r.buf)
		return out
	}
	start := int(r.n % uint64(cap(r.buf)))
	k := copy(out, r.buf[start:])
	copy(out[k:], r.buf[:start])
	return out
}

// Total returns how many records were ever written.
func (r *Ring[T]) Total() uint64 { return r.n }

// Dropped returns how many records the capacity bound evicted.
func (r *Ring[T]) Dropped() uint64 {
	if r.n > uint64(len(r.buf)) {
		return r.n - uint64(len(r.buf))
	}
	return 0
}

// KindCoalesced is the EngineEvent.Kind value for a logical event
// claimed inline via sim.Engine.RunsNext — it never collides with a
// registered sim.EventKind (the registry is bounded far below 255).
const KindCoalesced uint8 = 0xFF

// EngineEvent is one flight-recorder record, written at dispatch by
// sim.Engine's run loop (queue dispatches) and RunsNext (inline claims).
type EngineEvent struct {
	// At is the event's virtual time.
	At time.Duration
	// Ticket is the event's tie-break position: the queue entry's
	// sequence number, or the claimed ticket for a coalesced event.
	Ticket uint64
	// Kind is the sim.EventKind dispatched (KindCoalesced for inline
	// claims). The exporter resolves names via sim.KindName.
	Kind uint8
	// Coalesced marks an inline claim (no queue round-trip).
	Coalesced bool
}

// PacketOp is the per-packet hook site inside netsim.Link.
type PacketOp uint8

const (
	// PktEnqueue: the packet was accepted onto the link queue.
	PktEnqueue PacketOp = iota
	// PktDrop: the drop-tail buffer was full and the packet discarded.
	PktDrop
	// PktDeliver: the packet was handed to the receiver.
	PktDeliver
	// PktLoss: the random-loss process discarded the packet on delivery.
	PktLoss
	// PktCoalesce: the delivery was claimed inline by the batched drain
	// (it did not round-trip through the event queue); a PktDeliver or
	// PktLoss for the same packet follows.
	PktCoalesce
)

// String names the hook site.
func (op PacketOp) String() string {
	switch op {
	case PktEnqueue:
		return "enqueue"
	case PktDrop:
		return "drop"
	case PktDeliver:
		return "deliver"
	case PktLoss:
		return "loss"
	case PktCoalesce:
		return "coalesce"
	default:
		return "unknown"
	}
}

// PacketEvent is one per-packet record from a link hook.
type PacketEvent struct {
	At        time.Duration
	Op        PacketOp
	Link      string
	ConnID    int
	SubflowID int
	Seq       int64
	DSN       int64
	Size      int
	// QueuedBytes is the link's queue occupancy (bytes waiting for or
	// in serialization) after the hook's accounting — the counter-track
	// source for the Chrome trace.
	QueuedBytes int
	Retransmit  bool
}

// SubflowOp is the per-subflow hook site inside tcp.Subflow.
type SubflowOp uint8

const (
	// SfSend: a segment (first transmission or retransmission) was
	// pushed onto the wire.
	SfSend SubflowOp = iota
	// SfAck: a new cumulative ACK advanced sndUna.
	SfAck
	// SfRTO: the retransmission timer fired for real (window collapsed
	// to one segment).
	SfRTO
	// SfFastRtx: three duplicate ACKs triggered a fast retransmit.
	SfFastRtx
)

// String names the hook site.
func (op SubflowOp) String() string {
	switch op {
	case SfSend:
		return "send"
	case SfAck:
		return "ack"
	case SfRTO:
		return "rto"
	case SfFastRtx:
		return "fast-rtx"
	default:
		return "unknown"
	}
}

// SubflowEvent is one record from a tcp.Subflow hook.
type SubflowEvent struct {
	At     time.Duration
	Op     SubflowOp
	Name   string
	ConnID int
	ID     int
	// Seq is the subflow-level sequence involved: the transmitted
	// segment's seq for SfSend, sndUna otherwise.
	Seq int64
	// AckSeq is the cumulative ACK that triggered an SfAck (0 otherwise).
	AckSeq int64
	// Cwnd and Ssthresh snapshot the congestion state after the hook's
	// transition — the cwnd counter-track source for the Chrome trace.
	Cwnd         float64
	Ssthresh     float64
	InflightSegs int
	Srtt         time.Duration
}

// Ring capacities of a traced cell, per record kind.
const (
	flightCap   = 1 << 16
	packetCap   = 1 << 16
	subflowCap  = 1 << 15
	decisionCap = 1 << 14
)

// CellRecorder aggregates the rings armed for one traced cell.
type CellRecorder struct {
	// Experiment and Cell identify the traced cell (the results.Spec
	// family name and cell index, e.g. "grid/ecf" 14).
	Experiment string
	Cell       int

	Flight    *Ring[EngineEvent]
	Packets   *Ring[PacketEvent]
	Subflows  *Ring[SubflowEvent]
	Decisions *Ring[SchedDecision]
}

// NewCellRecorder returns the ring set for one traced cell.
func NewCellRecorder(experiment string, cell int) *CellRecorder {
	return &CellRecorder{
		Experiment: experiment,
		Cell:       cell,
		Flight:     newRing[EngineEvent](flightCap),
		Packets:    newRing[PacketEvent](packetCap),
		Subflows:   newRing[SubflowEvent](subflowCap),
		Decisions:  newRing[SchedDecision](decisionCap),
	}
}
