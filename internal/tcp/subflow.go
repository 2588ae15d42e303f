package tcp

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// ConnHooks is the upcall interface from a subflow to its owning MPTCP
// connection. The subflow handles everything at its own sequence level
// (RTT, CWND, retransmission); the connection layer reacts to the
// piggybacked data-level acknowledgement and tries to schedule more data.
type ConnHooks interface {
	// SubflowAcked is invoked after subflow-level processing of every ACK.
	SubflowAcked(s *Subflow, dataAck, window int64)
}

// MSS is the payload bytes per segment.
const MSS = 1400

const (
	// headerBytes is the per-packet overhead on the wire (IP + TCP +
	// MPTCP DSS option).
	headerBytes = 60
	// ackBytes is the wire size of a pure ACK.
	ackBytes = 60
	// initialCwnd is the initial window in segments (RFC 6928, the
	// value the paper's §3.2 example uses).
	initialCwnd = 10
)

// Config parameterizes a subflow.
type Config struct {
	// ConnID is the owning connection's identifier on shared links.
	ConnID int
	// ID is the subflow index within its connection.
	ID int
	// Name labels the subflow ("wifi", "lte").
	Name string
	// IdleRestart enables the RFC 2861 congestion-window reset after the
	// connection has been idle for an RTO. Figure 6 toggles this.
	IdleRestart bool
}

// SubflowStats aggregates sender-side counters.
type SubflowStats struct {
	SegmentsSent    int64
	BytesSent       int64 // payload bytes, first transmissions only
	Retransmits     int64
	FastRetransmits int64
	Timeouts        int64
	// IWResets counts events that return the window to (or below) the
	// initial window: idle restarts and RTO backoffs. Table 3 reports
	// this per scheduler.
	IWResets int64
	// IdleResets counts only the idle-restart subset of IWResets.
	IdleResets int64
}

// maxBurstSegments bounds how far past the in-flight count the window may
// point right after loss recovery (burst moderation, as in Linux's
// tcp_moderate_cwnd with a slightly wider allowance).
const maxBurstSegments = 10

// segment is one in-flight subflow-level segment. Segments are pooled
// per subflow: acked segments return to a free list and are reused by
// later sends, so steady-state transfer allocates no segment memory.
type segment struct {
	seq    int64 // subflow sequence (start byte)
	dsn    int64 // data sequence (start byte)
	length int
	sentAt sim.Time
	rtx    int // retransmission count
	owner  *Subflow
}

// paced is one pending paced transmission: the segment, its release
// time, and the tie-break ticket reserved when it entered the queue —
// the position an individually scheduled transmit event would have
// occupied, which is what keeps the batched pacer byte-identical.
type paced struct {
	seg *segment
	at  sim.Time
	tk  sim.Ticket
}

// kindPacedTransmit and kindRTO dispatch the subflow's timer events
// through the typed event table.
var (
	kindPacedTransmit sim.EventKind
	kindRTO           sim.EventKind
)

func init() {
	kindPacedTransmit = sim.RegisterKind("tcp.Subflow.pacedTransmit", func(a any) { a.(*Subflow).firePaced() })
	kindRTO = sim.RegisterKind("tcp.Subflow.rto", func(a any) { a.(*Subflow).fireRTO() })
}

// Subflow is the sender side of one MPTCP subflow.
type Subflow struct {
	eng  *sim.Engine
	cfg  Config
	path *netsim.Path
	conn ConnHooks
	ctrl cc.Controller

	nextSeq int64
	sndUna  int64
	// inflight is a seq-ordered ring of unacknowledged segments
	// ([infHead, infTail) live, in increasing-seq order). Sends append at
	// the tail; cumulative ACKs pop a prefix — segments are contiguous in
	// sequence space, so the acked set is always a prefix — and
	// retransmission paths only ever need the head segment (the one
	// starting at sndUna). No map hashing, no per-segment allocation.
	inflight         ring.Ring[*segment]
	infHead, infTail uint64
	segPool          []*segment
	inflightSegs     int
	inflightBytes    int

	cwnd          float64
	ssthresh      float64
	recoveryPoint int64 // -1 when not in loss recovery
	dupAcks       int
	// dupSacked counts duplicate ACKs received during the current
	// recovery episode. Each one means a segment left the network, so the
	// effective in-flight count is reduced accordingly — the SACK-less
	// equivalent of RFC 5681's window inflation, which keeps the pipe
	// busy through multi-loss recovery instead of stalling for one hole
	// per RTT.
	dupSacked int

	rtt      *rttEstimator
	rtoTimer sim.Timer
	// rtoDeadline/rtoTk are the authoritative retransmission deadline
	// and its reserved tie-break ticket (rtoDeadline 0 = disarmed). The
	// queued timer is re-armed lazily: re-arming to a later deadline
	// leaves the earlier timer in place to fire as a no-op that chains
	// to the real deadline, so the per-ACK cancel+insert churn of the
	// eager scheme disappears from the event queue entirely.
	rtoDeadline sim.Time
	rtoTk       sim.Ticket
	// rtoArmedAt/rtoArmedTk are the time and ticket the queued timer is
	// currently armed under; when the ticket trails rtoTk the fire is
	// stale even if the times coincide (the real timeout must run at
	// rtoTk's tie-break position).
	rtoArmedAt sim.Time
	rtoArmedTk sim.Ticket
	rtoBackoff time.Duration // multiplier, 1 when no backoff

	// pacedQ is the pending paced-transmission queue ([pacedHead,
	// pacedTail) live, release times and tickets both monotone), drained
	// by one self-rescheduling timer that batches back-to-back releases
	// via sim.RunsNext instead of costing one queue event per segment.
	pacedQ               ring.Ring[paced]
	pacedHead, pacedTail uint64
	pacedTimer           sim.Timer

	lastSendTime sim.Time
	everSent     bool
	// pktScratch is the outgoing packet under construction. transmit
	// overwrites every data field on each send and never touches the
	// ACK fields (they stay zero), so reusing one struct avoids
	// building and copying a ~100-byte literal per transmission.
	pktScratch netsim.Packet
	// idleBaseCwnd snapshots the window at the start of an idle period so
	// repeated PrepareSend calls decay idempotently from the same base as
	// the idle time grows (the kernel computes the decay once, at the
	// actual transmit; we may be consulted several times before that).
	idleBaseCwnd float64
	idleCounted  bool
	// nextPacedAt is the earliest time the pacer will release the next
	// segment.
	nextPacedAt sim.Time

	stats SubflowStats
}

// NewSubflow wires a sender onto path's forward link; ACKs arriving on the
// reverse link must be fed to OnAck (the connection layer installs that).
func NewSubflow(eng *sim.Engine, cfg Config, path *netsim.Path, ctrl cc.Controller, conn ConnHooks) *Subflow {
	s := &Subflow{eng: eng, rtt: &rttEstimator{}}
	s.Reset(cfg, path, ctrl, conn)
	return s
}

// Reset rebinds a pooled subflow to a (possibly different) config, path,
// controller and connection, restoring exactly the state NewSubflow
// would construct: initial window, empty inflight ring (the segment
// free list keeps its grown population), fresh RTT estimator, zeroed
// stats. It registers the subflow with ctrl, so the previous controller
// must have been detached via Close first, and — like every Reset in
// the pooled graph — the engine must have been reset first (pending
// paced-transmit and RTO events of the previous run died with it).
func (s *Subflow) Reset(cfg Config, path *netsim.Path, ctrl cc.Controller, conn ConnHooks) {
	if ctrl == nil {
		panic("tcp: nil congestion controller")
	}
	s.cfg = cfg
	s.path = path
	s.conn = conn
	s.ctrl = ctrl
	s.nextSeq = 0
	s.sndUna = 0
	// Segments still in flight when the previous run ended (a cell cut
	// off by its horizon with unacked data) were never freed by an ACK;
	// file them back into the pool so the next run reuses them instead
	// of re-allocating, and nil the slots so the ring does not pin them.
	for k := s.infHead; k < s.infTail; k++ {
		slot := s.inflight.At(k)
		s.segPool = append(s.segPool, *slot)
		*slot = nil
	}
	s.infHead, s.infTail = 0, 0
	s.inflightSegs = 0
	s.inflightBytes = 0
	s.cwnd = initialCwnd
	s.ssthresh = 1 << 30
	s.recoveryPoint = -1
	s.dupAcks = 0
	s.dupSacked = 0
	*s.rtt = rttEstimator{}
	s.rtoTimer = sim.Timer{}
	s.rtoDeadline = 0
	s.rtoTk = 0
	s.rtoArmedAt = 0
	s.rtoArmedTk = 0
	s.rtoBackoff = 1
	// Segments queued in the pacer are also in the inflight ring (pushSeg
	// precedes paceOut), which the loop above already filed back into the
	// pool — just drop the queue; freeing here would double-free.
	s.pacedHead, s.pacedTail = 0, 0
	s.pacedTimer = sim.Timer{}
	s.lastSendTime = 0
	s.everSent = false
	s.pktScratch = netsim.Packet{}
	s.idleBaseCwnd = 0
	s.idleCounted = false
	s.nextPacedAt = 0
	s.stats = SubflowStats{}
	ctrl.Register(s)
}

// observe records one send/ACK/recovery event into the engine's
// recorder; callers guard with s.eng.Recorder() != nil so an untraced
// cell never reaches the call.
func (s *Subflow) observe(op obs.SubflowOp, seq, ack int64) {
	s.eng.Recorder().Subflows.Record(obs.SubflowEvent{
		At:           s.eng.Now(),
		Op:           op,
		Name:         s.cfg.Name,
		ConnID:       s.cfg.ConnID,
		ID:           s.cfg.ID,
		Seq:          seq,
		AckSeq:       ack,
		Cwnd:         s.cwnd,
		Ssthresh:     s.ssthresh,
		InflightSegs: s.inflightSegs,
		Srtt:         s.rtt.srtt,
	})
}

// ID returns the subflow index.
func (s *Subflow) ID() int { return s.cfg.ID }

// Name returns the subflow label.
func (s *Subflow) Name() string { return s.cfg.Name }

// Path returns the underlying network path.
func (s *Subflow) Path() *netsim.Path { return s.path }

// Stats returns a copy of the counters.
func (s *Subflow) Stats() SubflowStats { return s.stats }

// Srtt returns the smoothed RTT estimate (0 before the first sample).
func (s *Subflow) Srtt() time.Duration { return s.rtt.srtt }

// SeedRTT initializes the RTT estimate with one measurement, as a kernel
// does from the SYN/SYN-ACK handshake.
func (s *Subflow) SeedRTT(rtt time.Duration) { s.rtt.sample(rtt) }

// RTTStdDev returns the RTT mean-deviation estimate — ECF's σ.
func (s *Subflow) RTTStdDev() time.Duration { return s.rtt.rttvar }

// HasRTTSample reports whether at least one RTT measurement exists.
func (s *Subflow) HasRTTSample() bool { return s.rtt.samples > 0 }

// InflightSegments returns the number of unacknowledged segments.
func (s *Subflow) InflightSegments() int { return s.inflightSegs }

// InflightBytes returns unacknowledged payload bytes (the subflow-level
// send-buffer occupancy the paper plots in Figure 3).
func (s *Subflow) InflightBytes() int { return s.inflightBytes }

// CwndSegments returns the congestion window in segments.
func (s *Subflow) CwndSegments() float64 { return s.cwnd }

// AvailableCwndSegments returns how many more segments the window allows.
// During loss recovery the in-flight count is discounted by the duplicate
// ACKs seen (segments known to have left the network).
func (s *Subflow) AvailableCwndSegments() int {
	eff := s.inflightSegs - s.dupSacked
	if eff < 0 {
		eff = 0
	}
	avail := int(s.cwnd) - eff
	if avail < 0 {
		return 0
	}
	return avail
}

// CanSend reports whether the congestion window has room for a segment.
func (s *Subflow) CanSend() bool { return s.AvailableCwndSegments() > 0 }

// cc.Flow implementation.

// Cwnd implements cc.Flow.
func (s *Subflow) Cwnd() float64 { return s.cwnd }

// SetCwnd implements cc.Flow.
func (s *Subflow) SetCwnd(w float64) {
	if w < 1 {
		w = 1
	}
	s.cwnd = w
}

// SetSsthresh implements cc.Flow.
func (s *Subflow) SetSsthresh(w float64) { s.ssthresh = w }

// SrttSeconds implements cc.Flow.
func (s *Subflow) SrttSeconds() float64 { return s.rtt.srtt.Seconds() }

// InSlowStart implements cc.Flow.
func (s *Subflow) InSlowStart() bool { return s.cwnd < s.ssthresh }

// PrepareSend applies the idle-restart window reset if the subflow has
// been quiescent for longer than its RTO (RFC 2861). The connection calls
// this before consulting the scheduler so scheduling decisions see the
// post-reset window — exactly as in the kernel, where the reset happens on
// the transmit path.
func (s *Subflow) PrepareSend() {
	if !s.cfg.IdleRestart || !s.everSent || s.inflightSegs > 0 {
		return
	}
	idle := s.eng.Now() - s.lastSendTime
	rto := s.rtt.rto()
	if idle < rto {
		return
	}
	if s.idleBaseCwnd == 0 {
		s.idleBaseCwnd = s.cwnd
	}
	// Decay: halve once per full RTO idle, floored at the initial window
	// (RFC 2861 / Linux tcp_cwnd_restart).
	decayed := s.idleBaseCwnd
	for t := idle; t >= rto && decayed > initialCwnd; t -= rto {
		decayed /= 2
	}
	if decayed < initialCwnd {
		decayed = initialCwnd
	}
	if decayed < s.cwnd {
		s.cwnd = decayed
	}
	if decayed <= initialCwnd && !s.idleCounted {
		s.idleCounted = true
		s.stats.IWResets++
		s.stats.IdleResets++
	}
}

// allocSeg takes a segment from the pool, falling back to the heap only
// until the pool has grown to the transfer's in-flight working set.
func (s *Subflow) allocSeg() *segment {
	if n := len(s.segPool); n > 0 {
		seg := s.segPool[n-1]
		s.segPool = s.segPool[:n-1]
		return seg
	}
	return &segment{owner: s}
}

// freeSeg recycles an acked segment. Only transmitted segments can be
// acked, and only never-transmitted segments are referenced by pending
// paced-transmit events, so a recycled segment is never still reachable
// from the event queue.
func (s *Subflow) freeSeg(seg *segment) {
	s.segPool = append(s.segPool, seg)
}

// pushSeg appends to the inflight ring.
func (s *Subflow) pushSeg(seg *segment) {
	s.inflight.Push(s.infHead, s.infTail, seg)
	s.infTail++
}

// frontSeg returns the lowest-sequence in-flight segment, or nil.
func (s *Subflow) frontSeg() *segment {
	if s.infHead == s.infTail {
		return nil
	}
	return *s.inflight.At(s.infHead)
}

// unaSegment returns the in-flight segment starting exactly at sndUna
// (the retransmission candidate), or nil — e.g. when the cumulative ACK
// landed mid-segment. Equivalent to the former map lookup: sndUna can
// only match the ring head, every earlier segment being fully acked.
func (s *Subflow) unaSegment() *segment {
	if seg := s.frontSeg(); seg != nil && seg.seq == s.sndUna {
		return seg
	}
	return nil
}

// SendSegment transmits payload [dsn, dsn+length) as a new subflow-level
// segment. The caller must have verified CanSend.
func (s *Subflow) SendSegment(dsn int64, length int) {
	if length <= 0 {
		panic(fmt.Sprintf("tcp: SendSegment with length %d", length))
	}
	seg := s.allocSeg()
	seg.seq = s.nextSeq
	seg.dsn = dsn
	seg.length = length
	seg.sentAt = 0
	seg.rtx = 0
	s.nextSeq += int64(length)
	s.pushSeg(seg)
	s.inflightSegs++
	s.inflightBytes += length
	s.stats.BytesSent += int64(length)
	s.paceOut(seg)
}

// paceOut releases a segment through the pacer: transmissions are spaced
// by srtt/cwnd (halved spacing during slow start, matching the kernel's
// pacing gain of 2), as Linux's internal TCP pacing does. Without it,
// window-opening ACKs release line-rate bursts that overflow shallow
// drop-tail buffers far below the window the path could sustain.
func (s *Subflow) paceOut(seg *segment) {
	if s.rtt.samples == 0 {
		s.transmit(seg)
		return
	}
	cwnd := s.cwnd
	if cwnd < 1 {
		cwnd = 1
	}
	gain := 1.0
	if s.InSlowStart() {
		gain = 2.0
	}
	interval := time.Duration(float64(s.rtt.srtt) / (cwnd * gain))
	now := s.eng.Now()
	at := s.nextPacedAt
	if at < now {
		at = now
	}
	s.nextPacedAt = at + interval
	if at <= now {
		s.transmit(seg)
		return
	}
	// Queue the release under a reserved ticket — the tie-break position
	// an individually scheduled transmit event would have taken — and
	// arm the shared timer only when idle: release times and tickets are
	// both monotone across the queue, so an armed timer is never late.
	tk := s.eng.ReserveTicket()
	*s.pacedQ.PushRef(s.pacedHead, s.pacedTail) = paced{seg: seg, at: at, tk: tk}
	s.pacedTail++
	if !s.pacedTimer.Active() {
		s.pacedTimer = s.eng.AtTicket(at, tk, kindPacedTransmit, s)
	}
}

// firePaced releases the head of the paced queue, then keeps releasing
// successors inline for as long as the engine confirms (sim.RunsNext)
// that each would have been its next dispatch anyway; the first refused
// claim re-arms the timer under that release's reserved ticket. A
// transmit never reenters the pacer synchronously (the wire path is
// pure event scheduling), so the queue cannot change under the loop.
func (s *Subflow) firePaced() {
	s.pacedTimer = sim.Timer{}
	for s.pacedHead < s.pacedTail {
		pc := s.pacedQ.At(s.pacedHead)
		seg := pc.seg
		pc.seg = nil // don't pin the segment once released
		s.pacedHead++
		s.transmit(seg)
		if s.pacedHead >= s.pacedTail {
			return
		}
		n := s.pacedQ.At(s.pacedHead)
		if !s.eng.RunsNext(n.at, n.tk) {
			s.pacedTimer = s.eng.AtTicket(n.at, n.tk, kindPacedTransmit, s)
			return
		}
	}
}

// transmit pushes one segment onto the wire and (re)arms the RTO.
func (s *Subflow) transmit(seg *segment) {
	now := s.eng.Now()
	seg.sentAt = now
	s.lastSendTime = now
	s.everSent = true
	s.idleBaseCwnd = 0
	s.idleCounted = false
	s.stats.SegmentsSent++
	pkt := &s.pktScratch
	pkt.Kind = netsim.Data
	pkt.Size = seg.length + headerBytes
	pkt.ConnID = s.cfg.ConnID
	pkt.SubflowID = s.cfg.ID
	pkt.Seq = seg.seq
	pkt.DSN = seg.dsn
	pkt.PayloadLen = seg.length
	pkt.SentAt = now
	pkt.Retransmit = seg.rtx > 0
	// A full drop-tail queue silently discards; recovery comes from
	// dup-ACKs or the RTO, like on a real path.
	s.path.Forward().Send(pkt)
	if s.eng.Recorder() != nil {
		s.observe(obs.SfSend, seg.seq, 0)
	}
	s.armRTO()
}

// armRTO restarts the retransmission timer lazily. Every arm reserves a
// ticket — exactly where the eager scheme's re-schedule reserved its
// sequence number, keeping every later tie-break unchanged — but the
// queued timer is only touched when it would fire too late: an early
// timer is left in place and fires as a no-op that chains to the real
// deadline (fireRTO). Since arms are per-transmit and per-ACK while
// real timeouts are rare, nearly all RTO queue traffic disappears.
func (s *Subflow) armRTO() {
	if s.inflightSegs == 0 {
		s.rtoDeadline = 0
		s.rtoTimer.Cancel()
		s.rtoTimer = sim.Timer{}
		return
	}
	d := s.rtt.rto() * s.rtoBackoff
	at := s.eng.Now() + d
	s.rtoDeadline = at
	s.rtoTk = s.eng.ReserveTicket()
	if s.rtoTimer.Active() {
		if s.rtoArmedAt <= at {
			// The pending timer fires no later than the new deadline:
			// leave it — fireRTO chains a stale fire to rtoDeadline
			// under the freshly reserved ticket.
			return
		}
		s.rtoTimer.Cancel()
	}
	s.rtoArmedAt, s.rtoArmedTk = at, s.rtoTk
	s.rtoTimer = s.eng.AtTicket(at, s.rtoTk, kindRTO, s)
}

// fireRTO filters stale timer fires: a fire before the authoritative
// deadline re-arms at that deadline under its reserved ticket — so a
// real timeout runs at exactly the (time, tie-break) the eager scheme
// would have given it — and a fire after disarm does nothing.
func (s *Subflow) fireRTO() {
	s.rtoTimer = sim.Timer{}
	if s.rtoDeadline == 0 {
		return
	}
	if s.eng.Now() < s.rtoDeadline || s.rtoArmedTk != s.rtoTk {
		s.rtoArmedAt, s.rtoArmedTk = s.rtoDeadline, s.rtoTk
		s.rtoTimer = s.eng.AtTicket(s.rtoDeadline, s.rtoTk, kindRTO, s)
		return
	}
	s.onRTO()
}

// onRTO handles a retransmission timeout: multiplicative decrease to a
// one-segment window, exponential backoff, and go-back-N style recovery
// driven by the cumulative ACK.
func (s *Subflow) onRTO() {
	s.rtoTimer = sim.Timer{}
	if s.inflightSegs == 0 {
		return
	}
	s.stats.Timeouts++
	s.stats.IWResets++
	ss := s.cwnd / 2
	if ss < 2 {
		ss = 2
	}
	s.ssthresh = ss
	s.cwnd = 1
	s.recoveryPoint = s.nextSeq
	s.dupAcks = 0
	s.dupSacked = 0
	if s.rtoBackoff < 64 {
		s.rtoBackoff *= 2
	}
	if s.eng.Recorder() != nil {
		s.observe(obs.SfRTO, s.sndUna, 0)
	}
	if seg := s.unaSegment(); seg != nil {
		seg.rtx++
		s.stats.Retransmits++
		s.transmit(seg)
	} else {
		s.armRTO()
	}
}

// OnAck processes one ACK packet from the receiver.
func (s *Subflow) OnAck(p *netsim.Packet) {
	if p.Kind != netsim.Ack {
		panic("tcp: OnAck on non-ack packet")
	}
	switch {
	case p.AckSeq > s.sndUna:
		s.processNewAck(p)
	case p.AckSeq == s.sndUna && p.SackHole && s.inflightSegs > 0:
		s.dupAcks++
		if s.recoveryPoint >= 0 {
			s.dupSacked++
		} else if s.dupAcks == 3 {
			s.fastRetransmit()
		}
	}
	if s.conn != nil {
		s.conn.SubflowAcked(s, p.DataAck, p.Window)
	}
}

func (s *Subflow) processNewAck(p *netsim.Packet) {
	// Segments are contiguous in sequence space, so the fully-acked set
	// is exactly a prefix of the seq-ordered ring.
	acked := 0
	for {
		seg := s.frontSeg()
		if seg == nil || seg.seq+int64(seg.length) > p.AckSeq {
			break
		}
		s.infHead++
		s.inflightSegs--
		s.inflightBytes -= seg.length
		s.freeSeg(seg)
		acked++
	}
	s.sndUna = p.AckSeq
	s.dupAcks = 0
	s.rtoBackoff = 1
	if s.recoveryPoint >= 0 {
		// The cumulative advance consumed some of the dup-ACKed range.
		s.dupSacked -= acked
		if s.dupSacked < 0 {
			s.dupSacked = 0
		}
	}
	if !p.EchoRetransmit && p.EchoSentAt > 0 {
		s.rtt.sample(s.eng.Now() - p.EchoSentAt)
	}
	inRecovery := s.recoveryPoint >= 0
	if inRecovery && s.sndUna >= s.recoveryPoint {
		s.recoveryPoint = -1
		s.dupSacked = 0
		inRecovery = false
		// Burst moderation (Linux tcp_moderate_cwnd): the exit ACK is
		// typically a giant cumulative ACK that empties the pipe; without
		// this clamp the sender would dump a full window back-to-back
		// into the bottleneck queue and immediately lose again. Slow
		// start restores the window within a few RTTs (ssthresh keeps
		// the halved value).
		if moderated := float64(s.inflightSegs) + maxBurstSegments; s.cwnd > moderated {
			s.cwnd = moderated
		}
	}
	if inRecovery {
		// NewReno partial ACK: the cumulative ACK advanced but stopped
		// short of the recovery point, exposing the next hole —
		// retransmit it immediately rather than waiting for an RTO.
		if seg := s.unaSegment(); seg != nil {
			seg.rtx++
			s.stats.Retransmits++
			s.transmit(seg)
		}
	}
	if acked > 0 && !inRecovery {
		if s.InSlowStart() {
			s.cwnd += float64(acked)
			if s.cwnd > s.ssthresh {
				s.cwnd = s.ssthresh
			}
			s.maybeExitSlowStart()
		} else {
			s.ctrl.OnAck(s, acked)
		}
	}
	if s.eng.Recorder() != nil {
		s.observe(obs.SfAck, s.sndUna, p.AckSeq)
	}
	s.armRTO()
}

// maybeExitSlowStart implements a HyStart-style delay-based slow-start
// exit (as Linux does): when the latest RTT sample exceeds the minimum
// observed RTT by more than a clamped eighth, queueing has begun and the
// window stops doubling. This avoids the massive drop-tail burst losses a
// pure loss-based exit would take on every connection start.
func (s *Subflow) maybeExitSlowStart() {
	if s.rtt.samples < 8 {
		return
	}
	minRTT := s.rtt.min
	thresh := minRTT / 8
	const lo, hi = 4 * time.Millisecond, 16 * time.Millisecond
	if thresh < lo {
		thresh = lo
	}
	if thresh > hi {
		thresh = hi
	}
	if s.rtt.recentMin() > minRTT+thresh {
		s.ssthresh = s.cwnd
	}
}

// fastRetransmit reacts to three duplicate ACKs.
func (s *Subflow) fastRetransmit() {
	seg := s.unaSegment()
	if seg == nil {
		return
	}
	s.ctrl.OnLoss(s)
	if s.cwnd <= initialCwnd {
		s.stats.IWResets++
	}
	s.recoveryPoint = s.nextSeq
	s.stats.FastRetransmits++
	s.stats.Retransmits++
	if s.eng.Recorder() != nil {
		s.observe(obs.SfFastRtx, s.sndUna, 0)
	}
	seg.rtx++
	s.transmit(seg)
}

// Penalize halves the window and slow-start threshold. The connection
// layer invokes this on the subflow that is blocking the send window, as
// part of the opportunistic-retransmission/penalization mechanism
// (Raiciu et al., NSDI'12) that the paper keeps enabled throughout.
func (s *Subflow) Penalize() {
	s.ctrl.OnLoss(s)
}

// Close detaches the subflow from its congestion controller and stops the
// retransmission timer.
func (s *Subflow) Close() {
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.Timer{}
	s.rtoDeadline = 0
	s.pacedTimer.Cancel()
	s.pacedTimer = sim.Timer{}
	s.ctrl.Unregister(s)
}
