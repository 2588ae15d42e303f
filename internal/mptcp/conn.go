package mptcp

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Config parameterizes an MPTCP connection. Opportunistic
// retransmission and penalization (Raiciu et al., NSDI'12) are always
// on, as in every experiment of the paper (§5.1).
type Config struct {
	// ID is the connection identifier; it must be unique per shared link.
	ID int
	// SndBuf is the connection-level send buffer size in bytes (the k in
	// ECF is the unscheduled portion of this buffer). Zero selects
	// defaultBuf.
	SndBuf int64
	// RcvBuf is the receive buffer / advertised window base. Zero
	// selects defaultBuf.
	RcvBuf int64
	// IdleRestart enables the RFC 2861 CWND reset after idle periods.
	// Figure 6 studies the effect of turning this off.
	IdleRestart bool
}

// defaultBuf sizes both buffers. 2 MiB approximates the era's
// Linux/Android tcp_rmem settings: large enough for ECF to fill the
// aggregate pipe, yet small enough that slow-path head-of-line blocking
// stalls the send window, as the paper's receive-window discussion (via
// Raiciu et al.) describes.
const defaultBuf = 2 << 20

func (c *Config) fillDefaults() {
	if c.SndBuf <= 0 {
		c.SndBuf = defaultBuf
	}
	if c.RcvBuf <= 0 {
		c.RcvBuf = defaultBuf
	}
}

// DefaultConfig returns the configuration used throughout the paper
// reproduction: default buffers, idle restart enabled.
func DefaultConfig(id int) Config {
	return Config{ID: id, IdleRestart: true}
}

// segRef is one unscheduled segment in the connection-level send buffer.
type segRef struct {
	dsn    int64
	length int
}

// dataSeg is one scheduled-but-unacked data-level segment, stored by
// value in the connection's inflight ring.
type dataSeg struct {
	dsn        int64
	length     int
	owner      *tcp.Subflow
	reinjected bool
}

// Transfer tracks one request/response exchange over the connection (a
// video chunk, a wget file, one web object).
type Transfer struct {
	// Bytes is the response size.
	Bytes int64
	// StartDSN and EndDSN delimit the response in the data stream.
	StartDSN, EndDSN int64
	// RequestedAt is when the client issued the request.
	RequestedAt sim.Time
	// StartedAt is when the server began sending.
	StartedAt sim.Time
	// CompletedAt is when the last byte was delivered in order.
	CompletedAt sim.Time
	// LastArrival records, indexed by subflow ID, the arrival time of
	// the last data packet of this transfer carried by that subflow
	// (Figure 5). Entries are negative for subflows that carried none of
	// this transfer; the slice grows on demand.
	LastArrival []sim.Time

	done func(*Transfer)
	// conn backs the closure-free request-delay event (set only for
	// transfers created via Request).
	conn *Conn
	// seq is the connection-local admission sequence number — a stable
	// identity for decision logs (DSN ranges are reused across resets,
	// admission order is not).
	seq int64
}

// Duration returns completion time as seen by the client.
func (t *Transfer) Duration() time.Duration { return t.CompletedAt - t.RequestedAt }

// LastPacketTimeDiff returns the absolute difference between the last
// data arrivals on the two given subflows, or (0, false) if either
// subflow carried none of this transfer.
func (t *Transfer) LastPacketTimeDiff(sfA, sfB int) (time.Duration, bool) {
	a, okA := t.lastArrival(sfA)
	b, okB := t.lastArrival(sfB)
	if !okA || !okB {
		return 0, false
	}
	if a > b {
		return a - b, true
	}
	return b - a, true
}

// lastArrival reads one subflow's entry, reporting false when the
// subflow carried none of this transfer.
func (t *Transfer) lastArrival(sf int) (sim.Time, bool) {
	if sf < 0 || sf >= len(t.LastArrival) || t.LastArrival[sf] < 0 {
		return 0, false
	}
	return t.LastArrival[sf], true
}

// sfUnit bundles one subflow's sender and receiver halves with the
// receiver funcs registered in the path demultiplexers. The funcs are
// method values created once per unit — pooled units re-register the
// same funcs instead of allocating fresh closures every cell.
type sfUnit struct {
	sf      *tcp.Subflow
	rx      *tcp.SubflowRecv
	rxRecv  netsim.Receiver // rx.OnPacket
	ackRecv netsim.Receiver // sf.OnAck
}

// Conn is an MPTCP connection: several TCP subflows bound to a shared
// data stream, a scheduler that places segments onto subflows, and a
// receiver that restores data-level ordering.
type Conn struct {
	eng   *sim.Engine
	cfg   Config
	ctrl  cc.Controller
	sched Scheduler
	recv  *Receiver

	subflows []*tcp.Subflow
	units    []sfUnit // parallel to subflows
	// freeUnits holds subflow units retired by Reset, reused (sender,
	// receiver and demux funcs together) by the next cell's AddSubflow.
	freeUnits []sfUnit

	writeDSN    int64 // next DSN the application will produce
	unsent      []segRef
	unsentHead  int
	unsentBytes int64

	// inflightQ is a DSN-ordered ring of scheduled-but-unacked data
	// segments stored by value ([infHead, infTail) live): cumulative
	// data ACKs pop a prefix, opportunistic retransmission reads and
	// marks the head in place. No per-segment heap allocation.
	inflightQ        ring.Ring[dataSeg]
	infHead, infTail uint64
	inflightBytes    int64
	dataAcked        int64
	peerWindow       int64

	transfers []*Transfer // active, DSN-ordered
	// transferSeq numbers transfers in admission order (Transfer.seq).
	transferSeq int64
	// retired collects completed transfers; freeTransfers feeds Write
	// and Request. Handles stay valid — fields intact — until the
	// connection is reset, which moves both lists back into the pool.
	retired       []*Transfer
	freeTransfers []*Transfer

	// lastPenalty is indexed by subflow ID (grown in AddSubflow); the
	// zero value means "never penalized", which the rate-limit check
	// treats as long ago.
	lastPenalty []sim.Time

	// stats
	reinjections int64
	penalties    int64
	windowStalls int64
	waitDecision int64 // times the scheduler chose to send nothing
}

// NewConn builds a connection. Subflows are added with AddSubflow; the
// scheduler is bound with SetScheduler before traffic starts.
func NewConn(eng *sim.Engine, cfg Config, ctrl cc.Controller) *Conn {
	c := &Conn{eng: eng, recv: newReceiver(eng, 0)}
	c.recv.ArrivalHook = c.attributeArrival
	c.Reset(cfg, ctrl)
	return c
}

// Reset rebinds a pooled connection to a new configuration and
// congestion controller, restoring the state NewConn would construct.
// Subflows of the previous run move to an internal free list and are
// revived by AddSubflow; completed and in-flight transfers return to
// the transfer pool (their handles become invalid); the receiver,
// send-buffer and inflight structures keep their grown capacity. The
// caller must have detached the previous controller (Close) and reset
// the engine first.
func (c *Conn) Reset(cfg Config, ctrl cc.Controller) {
	cfg.fillDefaults()
	if ctrl == nil {
		ctrl = cc.NewLIA()
	}
	c.cfg = cfg
	c.ctrl = ctrl
	c.sched = nil
	c.recv.reset(cfg.RcvBuf)
	c.freeUnits = append(c.freeUnits, c.units...)
	c.units = c.units[:0]
	c.subflows = c.subflows[:0]
	c.writeDSN = 0
	c.unsent = c.unsent[:0]
	c.unsentHead = 0
	c.unsentBytes = 0
	c.infHead, c.infTail = 0, 0
	c.inflightBytes = 0
	c.dataAcked = 0
	c.peerWindow = cfg.RcvBuf
	c.freeTransfers = append(c.freeTransfers, c.retired...)
	c.retired = c.retired[:0]
	c.freeTransfers = append(c.freeTransfers, c.transfers...)
	c.transfers = c.transfers[:0]
	c.transferSeq = 0
	c.lastPenalty = c.lastPenalty[:0]
	c.reinjections = 0
	c.penalties = 0
	c.windowStalls = 0
	c.waitDecision = 0
}

// SetScheduler binds the path scheduler. It must be called before data is
// written.
func (c *Conn) SetScheduler(s Scheduler) { c.sched = s }

// Scheduler returns the bound scheduler.
func (c *Conn) Scheduler() Scheduler { return c.sched }

// Controller returns the bound congestion controller (pool management:
// the network recovers it for reuse when the connection is reclaimed).
func (c *Conn) Controller() cc.Controller { return c.ctrl }

// Receiver returns the connection-level receive side.
func (c *Conn) Receiver() *Receiver { return c.recv }

// Now returns the current virtual time.
func (c *Conn) Now() sim.Time { return c.eng.Now() }

// Recorder returns the recorder of the traced cell this connection's
// engine belongs to, or nil when the cell is not traced — the one
// check a scheduler makes before recording a decision.
func (c *Conn) Recorder() *obs.CellRecorder { return c.eng.Recorder() }

// ID returns the connection identifier.
func (c *Conn) ID() int { return c.cfg.ID }

// AddSubflow creates a subflow over path and wires both directions
// through the given demultiplexers (which must be installed as the
// path's forward/reverse receivers, possibly shared with other
// connections). On a pooled connection it revives a retired subflow
// unit in place instead of allocating one.
func (c *Conn) AddSubflow(name string, path *netsim.Path, fwd, rev *netsim.Demux) *tcp.Subflow {
	id := len(c.subflows)
	sfCfg := tcp.Config{
		ConnID:      c.cfg.ID,
		ID:          id,
		Name:        name,
		IdleRestart: c.cfg.IdleRestart,
	}
	var u sfUnit
	if n := len(c.freeUnits); n > 0 {
		u = c.freeUnits[n-1]
		c.freeUnits = c.freeUnits[:n-1]
		u.sf.Reset(sfCfg, path, c.ctrl, c)
		u.rx.Reset(path, c.recv)
	} else {
		u.sf = tcp.NewSubflow(c.eng, sfCfg, path, c.ctrl, c)
		u.rx = tcp.NewSubflowRecv(path, c.recv)
		u.rxRecv = u.rx.OnPacket
		u.ackRecv = u.sf.OnAck
	}
	// Seed the RTT estimate with the zero-load path RTT, as a kernel
	// obtains one sample from the SYN/SYN-ACK exchange at subflow setup.
	u.sf.SeedRTT(path.BaseRTT())
	fwd.Register(c.cfg.ID, id, u.rxRecv)
	rev.Register(c.cfg.ID, id, u.ackRecv)
	c.units = append(c.units, u)
	c.subflows = append(c.subflows, u.sf)
	c.lastPenalty = append(c.lastPenalty, 0)
	return u.sf
}

// Subflows returns the connection's subflows in creation order (the
// first is the primary, WiFi in the paper's setup).
func (c *Conn) Subflows() []*tcp.Subflow { return c.subflows }

// UnsentBytes returns the bytes in the connection-level send buffer not
// yet scheduled onto any subflow — the k of ECF's inequalities.
func (c *Conn) UnsentBytes() int64 { return c.unsentBytes }

// NextUnsentDSN returns the data-level sequence number of the segment
// at the head of the unscheduled backlog, reporting false when the
// backlog is empty. Decision traces use it to attribute a scheduling
// choice to a transfer.
func (c *Conn) NextUnsentDSN() (int64, bool) {
	if c.unsentHead >= len(c.unsent) {
		return 0, false
	}
	return c.unsent[c.unsentHead].dsn, true
}

// ActiveTransferSeq returns the admission sequence number of the
// active transfer whose DSN range contains dsn, reporting false when
// no active transfer covers it.
func (c *Conn) ActiveTransferSeq(dsn int64) (int64, bool) {
	for _, tr := range c.transfers {
		if tr.StartDSN <= dsn && dsn < tr.EndDSN {
			return tr.seq, true
		}
	}
	return 0, false
}

// SendWindowBytes returns the effective connection-level send window:
// min(send buffer, peer receive window). BLEST's blocking estimate is
// computed against this.
func (c *Conn) SendWindowBytes() int64 {
	w := c.cfg.SndBuf
	if c.peerWindow < w {
		w = c.peerWindow
	}
	return w
}

// SendWindowFreeBytes returns the remaining space in the send window.
func (c *Conn) SendWindowFreeBytes() int64 {
	free := c.SendWindowBytes() - c.inflightBytes
	if free < 0 {
		free = 0
	}
	return free
}

// Reinjections returns the count of opportunistic retransmissions.
func (c *Conn) Reinjections() int64 { return c.reinjections }

// Penalties returns the count of penalization events.
func (c *Conn) Penalties() int64 { return c.penalties }

// WindowStalls returns how often sending was blocked by the
// connection-level send window.
func (c *Conn) WindowStalls() int64 { return c.windowStalls }

// WaitDecisions returns how often the scheduler deliberately idled
// (returned nil with backlog present).
func (c *Conn) WaitDecisions() int64 { return c.waitDecision }

// Write appends size bytes to the send stream and returns the Transfer
// handle; done (optional) fires on in-order delivery of the last byte.
func (c *Conn) Write(size int64, done func(*Transfer)) *Transfer {
	if c.sched == nil {
		panic("mptcp: Write before SetScheduler")
	}
	if size <= 0 {
		panic(fmt.Sprintf("mptcp: Write of %d bytes", size))
	}
	now := c.eng.Now()
	tr := c.newTransfer()
	tr.Bytes = size
	tr.StartDSN = c.writeDSN
	tr.EndDSN = c.writeDSN + size
	tr.RequestedAt = now
	tr.StartedAt = now
	tr.done = done
	c.admitTransfer(tr)
	return tr
}

// newTransfer takes a Transfer from the pool, zeroed but with its
// LastArrival capacity kept, falling back to the heap until the pool
// has grown to the cell's working set. tr.conn is pre-bound.
func (c *Conn) newTransfer() *Transfer {
	var tr *Transfer
	if n := len(c.freeTransfers); n > 0 {
		tr = c.freeTransfers[n-1]
		c.freeTransfers = c.freeTransfers[:n-1]
		la := tr.LastArrival[:0]
		*tr = Transfer{LastArrival: la}
	} else {
		tr = &Transfer{}
	}
	tr.conn = c
	return tr
}

// Request models a client-issued request for size response bytes: the
// server starts writing after the request's one-way latency. done fires
// at the client when the last byte is delivered in order.
func (c *Conn) Request(size int64, done func(*Transfer)) *Transfer {
	if c.sched == nil {
		panic("mptcp: Request before SetScheduler")
	}
	if size <= 0 {
		panic(fmt.Sprintf("mptcp: Request of %d bytes", size))
	}
	now := c.eng.Now()
	tr := c.newTransfer()
	tr.Bytes = size
	tr.RequestedAt = now
	tr.done = done
	c.eng.ScheduleEvent(c.requestDelay(), kindTransferStart, tr)
	return tr
}

// kindTransferStart dispatches the request-latency event through the
// typed event table: the server begins writing the response.
var kindTransferStart sim.EventKind

func init() {
	kindTransferStart = sim.RegisterKind("mptcp.Conn.transferStart", func(arg any) {
		tr := arg.(*Transfer)
		c := tr.conn
		tr.StartedAt = c.eng.Now()
		tr.StartDSN = c.writeDSN
		tr.EndDSN = c.writeDSN + tr.Bytes
		c.admitTransfer(tr)
	})
}

// requestDelay returns the client-to-server request latency: the
// primary path's reverse propagation delay plus 1 ms of processing.
func (c *Conn) requestDelay() time.Duration {
	if len(c.subflows) > 0 {
		return c.subflows[0].Path().Reverse().Delay() + time.Millisecond
	}
	return time.Millisecond
}

// admitTransfer segments the response into the send buffer and arms the
// completion waiter.
func (c *Conn) admitTransfer(tr *Transfer) {
	tr.seq = c.transferSeq
	c.transferSeq++
	c.transfers = append(c.transfers, tr)
	c.writeDSN = tr.EndDSN
	for dsn := tr.StartDSN; dsn < tr.EndDSN; {
		l := int64(tcp.MSS)
		if tr.EndDSN-dsn < l {
			l = tr.EndDSN - dsn
		}
		c.unsent = append(c.unsent, segRef{dsn: dsn, length: int(l)})
		c.unsentBytes += l
		dsn += l
	}
	c.recv.notifyTransfer(tr)
	c.trySend()
}

// completeTransfer finishes tr once the receiver's delivery point has
// passed its end: it timestamps, retires the transfer (the handle stays
// valid — and is recycled — only until the connection is reset) and
// fires the caller's done callback.
func (c *Conn) completeTransfer(tr *Transfer) {
	tr.CompletedAt = c.eng.Now()
	c.dropTransfer(tr)
	if tr.done != nil {
		tr.done(tr)
	}
}

func (c *Conn) dropTransfer(tr *Transfer) {
	for i, t := range c.transfers {
		if t == tr {
			copy(c.transfers[i:], c.transfers[i+1:])
			c.transfers[len(c.transfers)-1] = nil
			c.transfers = c.transfers[:len(c.transfers)-1]
			c.retired = append(c.retired, tr)
			return
		}
	}
}

// SubflowAcked implements tcp.ConnHooks: fold in the piggybacked
// data-level ACK and window, then try to schedule more data.
func (c *Conn) SubflowAcked(sf *tcp.Subflow, dataAck, window int64) {
	c.peerWindow = window
	if dataAck > c.dataAcked {
		c.dataAcked = dataAck
		for c.infHead < c.infTail {
			seg := c.inflightQ.At(c.infHead)
			if seg.dsn+int64(seg.length) > dataAck {
				break
			}
			c.infHead++
			c.inflightBytes -= int64(seg.length)
		}
	}
	c.trySend()
}

// attributeArrival is called by the receiver wrapper to credit a data
// packet to its transfer for last-packet bookkeeping.
func (c *Conn) attributeArrival(p *netsim.Packet, now sim.Time) {
	for _, tr := range c.transfers {
		if p.DSN >= tr.StartDSN && p.DSN < tr.EndDSN {
			for len(tr.LastArrival) <= p.SubflowID {
				tr.LastArrival = append(tr.LastArrival, noArrival)
			}
			tr.LastArrival[p.SubflowID] = now
			return
		}
	}
}

// trySend drains the unscheduled backlog through the scheduler while
// windows allow.
func (c *Conn) trySend() {
	for _, sf := range c.subflows {
		sf.PrepareSend()
	}
	for c.unsentHead < len(c.unsent) {
		seg := c.unsent[c.unsentHead]
		if c.inflightBytes+int64(seg.length) > c.SendWindowBytes() {
			c.windowStalls++
			c.maybeOpportunisticRtx()
			return
		}
		sf := c.sched.Select(c)
		if sf == nil {
			c.waitDecision++
			return
		}
		if !sf.CanSend() {
			// Defensive: a scheduler must not return a full subflow.
			panic(fmt.Sprintf("mptcp: scheduler %s returned subflow %s without window space",
				c.sched.Name(), sf.Name()))
		}
		c.unsentHead++
		c.unsentBytes -= int64(seg.length)
		if c.unsentHead == len(c.unsent) {
			c.unsent = c.unsent[:0]
			c.unsentHead = 0
		}
		f := c.inflightQ.PushRef(c.infHead, c.infTail)
		c.infTail++
		f.dsn = seg.dsn
		f.length = seg.length
		f.owner = sf
		f.reinjected = false
		c.inflightBytes += int64(seg.length)
		sf.SendSegment(seg.dsn, seg.length)
	}
}

// maybeOpportunisticRtx reinjects the window-blocking segment onto a
// faster available subflow and penalizes the blocker (Raiciu NSDI'12).
func (c *Conn) maybeOpportunisticRtx() {
	if c.infHead == c.infTail {
		return
	}
	head := c.inflightQ.At(c.infHead)
	if head.reinjected || head.owner == nil {
		return
	}
	var best *tcp.Subflow
	for _, sf := range c.subflows {
		if sf == head.owner || !sf.CanSend() || !sf.HasRTTSample() {
			continue
		}
		if sf.Srtt() >= head.owner.Srtt() && head.owner.HasRTTSample() {
			continue // only reinject onto a faster subflow
		}
		if best == nil || sf.Srtt() < best.Srtt() {
			best = sf
		}
	}
	if best == nil {
		return
	}
	head.reinjected = true
	c.reinjections++
	best.SendSegment(head.dsn, head.length)
	now := c.eng.Now()
	if id := head.owner.ID(); now-c.lastPenalty[id] >= head.owner.Srtt() {
		c.lastPenalty[id] = now
		c.penalties++
		head.owner.Penalize()
	}
}

// Close shuts down all subflows.
func (c *Conn) Close() {
	for _, sf := range c.subflows {
		sf.Close()
	}
}
