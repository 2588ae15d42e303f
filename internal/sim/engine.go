// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the network, transport and application models in this repository
// run on virtual time supplied by an Engine. Events execute in strict
// timestamp order; ties are broken by scheduling order, which makes every
// simulation fully deterministic for a given seed.
//
// # Event representation: typed kinds
//
// Every queued event is a pair (kind, arg): a small EventKind naming one
// of the simulation's known event types, and an untyped argument (in
// practice always a pointer to the model object the event belongs to).
// Model packages register their kinds once, at package init, with
// RegisterKind; firing an event is a single load from the dense
// kind-dispatch table followed by a direct call into the registered
// handler — there is no per-event closure and no function pointer stored
// per timer slot. The closure forms Schedule/At are a convenience built
// on the same representation (kindClosure, with the func() as the
// argument); they are for setup and cold paths only.
//
// The registry contract:
//
//   - RegisterKind may only be called during package initialization
//     (package-level var or init), never after engines are running. The
//     returned EventKind is process-global and carries no ordering
//     semantics — dispatch identity only.
//   - A kind's handler is total: it must tolerate being invoked for any
//     argument its package schedules under that kind, including after
//     the model object was reset (handlers run only while their engine
//     is live, so in practice Reset's invalidation makes this moot).
//   - Handlers run on the engine's goroutine; they may schedule, cancel
//     and reserve tickets freely.
//
// # Event queue
//
// The queue is one 4-ary min-heap of 24-byte entries ordered by
// (at, seq): earliest time first, scheduling (ticket) order breaking
// ties. Each entry embeds its full key next to its arena slot index, so
// sifts compare inside the contiguous heap slice and never touch the
// arena; each slot records its entry's heap index, which makes Cancel an
// eager O(log n) removal and Timer.At an O(1) read. The sweep's live
// queue is shallow (mean depth ~8, max 29 over the whole catalog), so a
// sift touches barely one level; every schedule samples the depth into
// QueueStats so that stays a measured fact.
//
// # Allocation and layout contract
//
// The engine is built for allocation-free, cache-resident steady-state
// operation:
//
//   - Timers live in an engine-owned arena recycled through a free list;
//     a slot holds only the event argument, its generation and its
//     queue position — 24 bytes. The event's kind travels in the queue
//     entry (it fits the entry's alignment padding), so dispatch never
//     waits on an extra arena load.
//   - Queue entries are 24 bytes and embed the full ordering key
//     (at, seq) next to the arena slot index, so heap sifts read only
//     the contiguous entry slice and never chase a pointer into the
//     arena. The arena is touched exactly once per moved entry (to
//     maintain the slot's heap index for eager Cancel and Timer.At), not
//     once per comparison.
//   - Reset returns an engine to time zero while keeping the arena and
//     heap at their grown capacity; core's pooled networks each own one
//     engine, so a sweep of thousands of simulation cells re-grows these
//     structures once per worker instead of once per cell.
//
// # Event-count reduction: tickets and inline claims
//
// Models that multiplex several logical events through one timer (the
// netsim.Link drain, the tcp.Subflow pacer) reserve a Ticket per logical
// event up front and arm the shared timer under the earliest pending
// ticket. When that timer fires, the model may process its successor
// logical events inline — without a round-trip through the heap — by
// asking RunsNext whether each successor would be the next event the
// engine dispatched anyway. This batching is exact: execution order, and
// therefore every tie-break and every byte of experiment output, is
// identical to scheduling each logical event individually. Processed
// counts heap dispatches, Coalesced counts logical events claimed
// inline; their sum is the logical event total.
//
// Once the arena and heap have grown to a simulation's working set,
// scheduling, firing and cancelling timers perform zero heap
// allocations — the AllocsPerRun regression tests in this package and in
// netsim/tcp pin that at ~0 allocations per packet.
//
// # Daemon events and quiescence
//
// An event scheduled with ScheduleDaemon is a daemon: a background
// process (today: the RTT-jitter random walk of internal/trace) that
// perturbs the model but never keeps a simulation alive. Run and
// RunUntil treat it as any other event. RunUntilQuiet dispatches in
// the same (time, ticket) order, daemons included, and returns as soon
// as every pending event is a daemon — so a model whose result is fixed
// once its own work is done stops there instead of ticking to a horizon,
// and everything up to that point, tie-breaks and all, is what RunUntil
// would have produced. That equivalence rests on who may be a daemon: a
// handler that schedules nothing but further daemons, and whose effects
// nothing reads once the queue holds only daemons. A daemon that could
// wake the model up (send a packet, arm a live timer) must be an
// ordinary event. The mark is a spare bit of the queue entry's kind
// byte; a dispatch pays one branch on it.
//
// # Event budget
//
// SetBudget caps the heap dispatches of RunUntil and RunUntilQuiet, and
// Exhausted reports a run that stopped on the cap; inline claims are not
// counted, and a new or Reset engine is unlimited. A simulation is
// deterministic, so where it runs out is too: unlike a wall-clock
// deadline, a budget's verdict is the same on every host. It cannot stop
// a handler that loops without returning — a model bug, not a runaway
// schedule.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Time is a point in virtual time, measured from the simulation epoch (0).
type Time = time.Duration

// maxTime is the largest representable virtual time (Run's inline-claim
// horizon when no deadline applies).
const maxTime = Time(math.MaxInt64)

// noSlot terminates the arena free list.
const noSlot = -1

// noRunLimit is the inline-claim bound outside Run/RunUntil: below any
// valid virtual time, so RunsNext refuses every claim.
const noRunLimit = Time(-1)

// idleTicket is CurrentTicket's value outside any dispatch: every
// pending sub-event with a timestamp at or before the clock has
// logically completed once no event is running.
const idleTicket = Ticket(math.MaxUint64)

// EventKind identifies one of the simulation's event types in the
// process-global kind-dispatch table. Kinds are allocated by
// RegisterKind at package init; kindClosure is pre-registered for the
// Schedule/At closure forms.
type EventKind uint8

// kindClosure is the built-in kind backing Schedule/At: the event
// argument is the func() to invoke.
const kindClosure EventKind = 0

// maxKinds bounds the dispatch table. The whole stack uses well under
// this; the bound keeps the table a fixed-size array.
const maxKinds = 64

var (
	kindFns   [maxKinds]func(any)
	kindNames [maxKinds]string
	numKinds  = EventKind(1) // kindClosure
)

func init() {
	kindNames[kindClosure] = "sim.closure"
	kindFns[kindClosure] = func(arg any) { arg.(func())() }
}

// RegisterKind adds an event kind to the dispatch table and returns its
// identifier. It must be called during package initialization only (the
// table is read without synchronization once engines run); registering
// more than maxKinds kinds or a nil handler panics.
func RegisterKind(name string, fn func(any)) EventKind {
	if fn == nil {
		panic("sim: RegisterKind with nil handler")
	}
	if numKinds >= maxKinds {
		panic("sim: event-kind table full")
	}
	k := numKinds
	numKinds++
	kindFns[k] = fn
	kindNames[k] = name
	return k
}

// KindName returns the registration name of k ("" for unregistered
// values) — telemetry and debugging only.
func KindName(k EventKind) string {
	if k < maxKinds {
		return kindNames[k]
	}
	return ""
}

// Timer is a generation-checked handle for a scheduled event, returned by
// the Schedule/At families. The zero value is inert: Cancel is a no-op
// and Active reports false. Handles stay safe after the event fires or is
// cancelled — the underlying arena slot is recycled, but the generation
// check makes a stale handle's Cancel a no-op rather than a cancellation
// of an unrelated reused timer.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Active reports whether the timer is still scheduled (not yet fired and
// not cancelled).
func (t Timer) Active() bool {
	return t.e != nil && t.e.arena[t.slot].gen == t.gen
}

// At returns the virtual time the timer is scheduled to fire, or 0 if it
// already fired or was cancelled.
func (t Timer) At() Time {
	if !t.Active() {
		return 0
	}
	return t.e.heap[t.e.arena[t.slot].pos].at
}

// Cancel removes the timer from the queue eagerly — heap entry and arena
// slot both, so arm/cancel churn stays allocation-free and Pending never
// counts a cancelled timer. Cancelling an already-fired or
// already-cancelled timer — or the zero Timer — is a no-op.
func (t Timer) Cancel() {
	e := t.e
	if e == nil {
		return
	}
	s := &e.arena[t.slot]
	if s.gen != t.gen {
		return // already fired, cancelled, or slot reused
	}
	if e.heap[s.pos].kind&daemonMark != 0 {
		e.daemons--
	}
	e.heapRemove(int(s.pos))
	e.freeSlot(t.slot)
}

// slot is one arena entry: the event argument and the bookkeeping that
// ties it to the queue. The ordering key and the event kind live in the
// queue entry itself, not here. While scheduled, pos is the heap index
// of the timer's entry; while free, it links the free list.
type slot struct {
	arg any
	gen uint32
	pos int32
}

// heapEnt is one event-queue entry: the full ordering key packed next to
// the arena slot index and the event kind (which rides in what would
// otherwise be alignment padding — the entry stays 24 bytes). less never
// touches the arena — comparisons stay inside the contiguous heap slice.
// A daemon event carries daemonMark in its kind byte rather than in a
// field of its own: the compiler keeps structs of up to four fields in
// registers, and a fifth grew siftDown by a quarter (fig14 ran ~8 %
// slower with it).
type heapEnt struct {
	at   Time
	seq  uint64
	slot int32
	kind EventKind
}

// daemonMark is the bit of heapEnt.kind that marks a daemon event; kinds
// proper stay below it (maxKinds).
const daemonMark EventKind = 0x80

// less orders entries by (at, seq): earliest first, scheduling order
// breaking ties — the determinism invariant every model relies on.
func less(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a discrete-event scheduler over virtual time.
//
// The zero value is not usable; construct with New. Engines are not
// safe for concurrent use: simulations are single-goroutine by design,
// which is what makes them reproducible.
type Engine struct {
	now      Time
	arena    []slot
	freeHead int32
	// heap is the event queue: a 4-ary min-heap of key-packed entries
	// ordered by (at, seq). 4-ary beats binary here: sift-down does 3
	// extra comparisons per level but halves the levels, and with
	// 24-byte entries the four children of a node share two cache
	// lines.
	heap []heapEnt
	seq  uint64
	// qstats is the per-run queue telemetry, flushed by Reset.
	qstats queueCounters
	// limit bounds inline claims (RunsNext): Run lifts it to maxTime,
	// RunUntil to its deadline, so a batching drain can never advance
	// the clock past what the run loop itself would dispatch. Outside a
	// run loop it is -1 (below any valid time) and RunsNext declines
	// every claim.
	limit Time
	// processed counts heap events dispatched; coalesced counts logical
	// events claimed inline via RunsNext. Their sum is the logical event
	// total.
	processed uint64
	coalesced uint64
	// budget caps processed inside run; exhausted records that the last
	// run stopped on it.
	budget    uint64
	exhausted bool
	// byKind splits processed by event kind; Reset flushes it into the
	// process totals (TotalEventsByKind).
	byKind [maxKinds]uint64
	// daemons counts the pending daemon events, so RunUntilQuiet knows in
	// O(1) when nothing else is left.
	daemons int
	// curSeq is the tie-break position of the event currently being
	// dispatched (idleTicket when none is). Models with lazily-accounted
	// sub-events compare their reserved tickets against it to decide
	// whether a same-instant sub-event logically precedes the running
	// event — see CurrentTicket.
	curSeq uint64
	// flight, when non-nil, records every dispatch (heap and inline
	// claims) into a fixed-capacity ring. It is installed only on the
	// engine of a traced cell and cleared by Reset; on every other
	// engine each dispatch pays one nil check.
	flight *obs.Ring[obs.EngineEvent]
}

// New returns an empty Engine positioned at time 0.
func New() *Engine {
	return &Engine{freeHead: noSlot, limit: noRunLimit, curSeq: uint64(idleTicket), budget: math.MaxUint64}
}

// totalProcessed and totalCoalesced accumulate, across every engine in
// the process, the counters of runs that have completed (flushed by
// Reset — the pooled-lifecycle step every simulation cell ends with).
// They feed the ecfbench event telemetry.
var (
	totalProcessed atomic.Uint64
	totalCoalesced atomic.Uint64
	totalByKind    [maxKinds]atomic.Uint64
)

// TotalEvents returns the process-wide counters of heap events
// dispatched and logical events coalesced inline, summed over every
// engine run flushed so far (an engine flushes on Reset; a network cell
// flushes when it is closed).
func TotalEvents() (processed, coalesced uint64) {
	return totalProcessed.Load(), totalCoalesced.Load()
}

// TotalEventsByKind returns TotalEvents' processed count split by event
// kind, indexed by EventKind (name an index with KindName); the entries
// sum to processed once every engine has flushed.
func TotalEventsByKind() []uint64 {
	out := make([]uint64, numKinds)
	for k := range out {
		out[k] = totalByKind[k].Load()
	}
	return out
}

// Reset returns the engine to virtual time zero with an empty queue,
// retaining the arena and heap at their grown capacity so the next
// simulation starts with a warm working set. Every outstanding Timer
// handle is invalidated (their generation is bumped) and every pending
// event argument is dropped, so the previous simulation's object graph
// becomes collectable even while the engine sits in a pool. The run's
// event and queue-telemetry counters are flushed into the process-wide
// totals.
func (e *Engine) Reset() {
	totalProcessed.Add(e.processed)
	totalCoalesced.Add(e.coalesced)
	for k := EventKind(0); k < numKinds; k++ {
		if n := e.byKind[k]; n != 0 {
			totalByKind[k].Add(n)
			e.byKind[k] = 0
		}
	}
	e.flushQueueStats()
	for i := range e.arena {
		s := &e.arena[i]
		s.gen++
		s.arg = nil
		s.pos = int32(i) - 1 // chain the free list through all slots
	}
	e.freeHead = noSlot
	if n := len(e.arena); n > 0 {
		e.freeHead = int32(n - 1)
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.coalesced = 0
	e.daemons = 0
	e.budget = math.MaxUint64
	e.exhausted = false
	e.limit = noRunLimit
	e.curSeq = uint64(idleTicket)
	e.flight = nil
}

// SetFlightRecorder installs (or with nil removes) the dispatch
// recorder. Reset also removes it, so a pooled engine never carries a
// recorder into its next cell.
func (e *Engine) SetFlightRecorder(r *obs.Ring[obs.EngineEvent]) { e.flight = r }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of heap events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetBudget caps the heap dispatches of RunUntil and RunUntilQuiet at n
// until Reset.
func (e *Engine) SetBudget(n uint64) { e.budget = n }

// Exhausted reports whether the last RunUntil or RunUntilQuiet stopped
// on the budget with an event still due.
func (e *Engine) Exhausted() bool { return e.exhausted }

// Coalesced returns the number of logical events claimed inline via
// RunsNext so far (events that did not round-trip through the heap).
func (e *Engine) Coalesced() uint64 { return e.coalesced }

// CurrentTicket returns the tie-break position of the event being
// dispatched right now — a heap event's sequence number, or the claimed
// ticket inside a RunsNext batch — and idleTicket (the maximum Ticket)
// when no event is running. A model that accounts sub-events lazily
// instead of scheduling them (the link serializer's departures) uses it
// to reproduce the eager scheme's same-instant semantics exactly: a
// sub-event keyed (t, tk) has logically completed iff t is in the past,
// or t is now and tk sorts before the running event's position.
func (e *Engine) CurrentTicket() Ticket { return Ticket(e.curSeq) }

// Pending returns the number of events waiting in the queue. Cancelled
// timers are never counted: Cancel removes them eagerly.
func (e *Engine) Pending() int { return len(e.heap) }

// peekHead returns the (at, seq) ordering key of the queue's head event.
func (e *Engine) peekHead() (Time, uint64, bool) {
	if len(e.heap) == 0 {
		return 0, 0, false
	}
	return e.heap[0].at, e.heap[0].seq, true
}

// Schedule arranges for fn to run delay from now. A negative delay is
// treated as zero (run "immediately", after currently queued events at the
// same timestamp). The returned Timer may be used to cancel the event.
//
// The closure form is for setup and cold paths; per-packet scheduling
// should use ScheduleEvent/AtEvent with a registered kind, which capture
// nothing.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute virtual time t. If t is in the
// past it is clamped to the current time.
func (e *Engine) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	// A func value is pointer-shaped, so boxing it into the arg interface
	// does not allocate; the closure itself (if it captures) is the
	// caller's allocation.
	return e.schedule(t, kindClosure, fn)
}

// ScheduleEvent is the typed form of Schedule: the registered handler for
// kind is invoked with arg when the timer fires. With a pointer-shaped
// arg (the idiom: the model struct the event belongs to), scheduling
// captures nothing and allocates nothing.
func (e *Engine) ScheduleEvent(delay time.Duration, kind EventKind, arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.AtEvent(e.now+delay, kind, arg)
}

// ScheduleDaemon is ScheduleEvent for a daemon event: it fires in the same
// (time, ticket) position an ordinary event would, but does not keep a
// RunUntilQuiet alive (see the package doc for who may be a daemon).
func (e *Engine) ScheduleDaemon(delay time.Duration, kind EventKind, arg any) Timer {
	if kind >= numKinds {
		panic(fmt.Sprintf("sim: ScheduleDaemon with unregistered kind %d", kind))
	}
	if delay < 0 {
		delay = 0
	}
	e.seq++
	e.daemons++
	return e.scheduleSeq(e.now+delay, e.seq, kind|daemonMark, arg)
}

// AtEvent is the typed form of At.
func (e *Engine) AtEvent(t Time, kind EventKind, arg any) Timer {
	if kind >= numKinds {
		panic(fmt.Sprintf("sim: AtEvent with unregistered kind %d", kind))
	}
	return e.schedule(t, kind, arg)
}

// Ticket is a reserved position in the engine's tie-break order. Models
// that multiplex several logical events through one timer (netsim.Link's
// drain, the tcp pacer) reserve a ticket per logical event up front and
// later schedule the shared timer under the earliest pending ticket — so
// same-timestamp ordering against every other event is exactly what
// scheduling each logical event individually would have produced. That
// equivalence is what keeps experiment output byte-identical across the
// multiplexing.
type Ticket uint64

// ReserveTicket claims the next position in the tie-break order, exactly
// as scheduling an event at this point would.
func (e *Engine) ReserveTicket() Ticket {
	e.seq++
	return Ticket(e.seq)
}

// AtTicket arranges for kind's handler to run on arg at absolute time t,
// occupying a previously reserved tie-break position. Each ticket may
// back at most one scheduled timer at a time; reusing a ticket after its
// timer fired or was cancelled is allowed (the drain pattern re-arms
// under the next pending ticket).
func (e *Engine) AtTicket(t Time, tk Ticket, kind EventKind, arg any) Timer {
	if kind >= numKinds {
		panic(fmt.Sprintf("sim: AtTicket with unregistered kind %d", kind))
	}
	return e.scheduleSeq(t, uint64(tk), kind, arg)
}

// RunsNext reports whether a pending logical event keyed (t, tk) would be
// the engine's very next dispatch — no queued event sorts before it and
// t does not exceed the run loop's deadline — and, when true, advances
// the clock to t and counts the event as coalesced. A multiplexing
// model calls this from inside its timer handler to execute successor
// logical events inline instead of re-arming through the heap; because
// the claim succeeds only when the successor would have been dispatched
// next anyway, execution order (and with it every tie-break) is
// identical to the unbatched schedule.
// Outside Run/RunUntil the claim always fails, preserving strict
// one-event-per-step semantics for direct step callers.
func (e *Engine) RunsNext(t Time, tk Ticket) bool {
	if t > e.limit {
		return false
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: RunsNext in the past: %v < %v", t, e.now))
	}
	if at, seq, ok := e.peekHead(); ok {
		if at < t || (at == t && seq < uint64(tk)) {
			return false
		}
	}
	e.now = t
	e.coalesced++
	e.curSeq = uint64(tk)
	if e.flight != nil {
		e.flight.Record(obs.EngineEvent{At: t, Ticket: uint64(tk), Kind: obs.KindCoalesced, Coalesced: true})
	}
	return true
}

// schedule places (kind, arg) into the arena and heap under a fresh
// sequence number.
func (e *Engine) schedule(t Time, kind EventKind, arg any) Timer {
	e.seq++
	return e.scheduleSeq(t, e.seq, kind, arg)
}

// scheduleSeq places (kind, arg) into the arena and queue under an
// explicit tie-break sequence number. A kind carrying daemonMark has
// already been counted in e.daemons by its caller.
func (e *Engine) scheduleSeq(t Time, seq uint64, kind EventKind, arg any) Timer {
	if t < e.now {
		t = e.now
	}
	si := e.allocSlot()
	s := &e.arena[si]
	s.arg = arg
	gen := s.gen
	e.heap = append(e.heap, heapEnt{at: t, seq: seq, slot: si, kind: kind})
	e.siftUp(len(e.heap) - 1)
	// Depth telemetry: one sample per scheduled event (a handful of
	// integer ops — the counters ride in the engine and flush on Reset).
	d := uint64(len(e.heap))
	e.qstats.depthSum += d
	e.qstats.depthSamples++
	if d > e.qstats.depthMax {
		e.qstats.depthMax = d
	}
	return Timer{e: e, slot: si, gen: gen}
}

// allocSlot pops the free list, growing the arena only when it is empty.
func (e *Engine) allocSlot() int32 {
	if e.freeHead != noSlot {
		si := e.freeHead
		e.freeHead = e.arena[si].pos
		return si
	}
	e.arena = append(e.arena, slot{})
	return int32(len(e.arena) - 1)
}

// freeSlot retires a fired or cancelled slot: the generation bump
// invalidates outstanding handles. arg is deliberately left in place —
// nil-ing it costs a write-barriered store on every event pop and
// cancel, and the reference it pins (a model object that lives for the
// whole simulation anyway) dies at the latest when Reset clears the
// arena before the engine is pooled.
func (e *Engine) freeSlot(si int32) {
	s := &e.arena[si]
	s.gen++
	s.pos = e.freeHead
	e.freeHead = si
}

// step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ent := e.heap[0]
	if ent.at < e.now {
		panic(fmt.Sprintf("sim: time went backwards: %v < %v", ent.at, e.now))
	}
	e.now = ent.at
	e.processed++
	kind := ent.kind
	if kind&daemonMark != 0 {
		kind &^= daemonMark
		e.daemons--
	}
	e.byKind[kind%maxKinds]++
	e.curSeq = ent.seq
	if e.flight != nil {
		e.flight.Record(obs.EngineEvent{At: ent.at, Ticket: ent.seq, Kind: uint8(kind)})
	}
	arg := e.arena[ent.slot].arg
	// Retire the slot before running the handler so the event can
	// reschedule (reusing this very slot) and so its own handle is
	// already stale inside the handler.
	e.heapRemove(0)
	e.freeSlot(ent.slot)
	kindFns[kind%maxKinds](arg)
	e.curSeq = uint64(idleTicket)
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	e.limit = maxTime
	for e.step() {
	}
	e.limit = noRunLimit
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (if it is ahead of the last event). Events scheduled
// after deadline remain queued. A run that exhausts the event budget
// (SetBudget) leaves the clock at its last dispatch instead.
func (e *Engine) RunUntil(deadline Time) { e.run(deadline, false) }

// RunUntilQuiet is RunUntil that also ends — reporting true — as soon as
// every pending event is a daemon (or the queue is empty). Up to that
// point it dispatches exactly what RunUntil(deadline) would, daemons
// included, in the same (time, ticket) order; it then leaves the clock at
// its last dispatch and the daemons queued, so a later run call resumes
// them. Ending at the deadline or on the event budget instead, it
// returns false with the clock where RunUntil leaves it.
func (e *Engine) RunUntilQuiet(deadline Time) bool { return e.run(deadline, true) }

// run is the one dispatch loop behind RunUntil and RunUntilQuiet.
func (e *Engine) run(deadline Time, untilQuiet bool) (quiet bool) {
	e.exhausted = false
	e.limit = deadline
	for {
		if untilQuiet && e.Pending() == e.daemons {
			quiet = true
			break
		}
		at, _, ok := e.peekHead()
		if !ok || at > deadline {
			break
		}
		if e.processed >= e.budget {
			e.exhausted = true
			break
		}
		e.step()
	}
	e.limit = noRunLimit
	if !quiet && !e.exhausted && e.now < deadline {
		e.now = deadline
	}
	return quiet
}

// siftUp restores heap order for the entry at heap index i, moving it
// toward the root. The arena is written once per moved entry (its heap
// position, for eager Cancel); comparisons never leave the heap slice.
func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ent, h[p]) {
			break
		}
		h[i] = h[p]
		e.arena[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = ent
	e.arena[ent.slot].pos = int32(i)
}

// siftDown restores heap order for the entry at heap index i, moving it
// toward the leaves.
func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	ent := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(h[j], h[best]) {
				best = j
			}
		}
		if !less(h[best], ent) {
			break
		}
		h[i] = h[best]
		e.arena[h[i].slot].pos = int32(i)
		i = best
	}
	h[i] = ent
	e.arena[ent.slot].pos = int32(i)
}

// heapRemove deletes the entry at heap index i in O(log n), the operation
// that makes eager Cancel cheap.
func (e *Engine) heapRemove(i int) {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if i == n {
		return
	}
	h[i] = last
	e.arena[last.slot].pos = int32(i)
	if i > 0 && less(last, h[(i-1)>>2]) {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}
