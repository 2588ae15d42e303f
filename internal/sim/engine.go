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
// per timer slot. The closure form Schedule is a convenience built on
// the same representation (kindClosure, with the func() as the
// argument); it is for setup and cold paths only.
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
// The queue is one slice of 24-byte entries kept sorted in descending
// (at, seq) order — latest first, so the next event to dispatch is the
// last element and a dispatch just shortens the slice by one. A schedule
// appends and walks toward the front, moving each pending event that is
// due before the new one up by one place; Cancel scans from the tail for
// the timer's slot and closes the gap. Each entry embeds its full key
// next to its arena slot index, so every comparison and move stays
// inside the contiguous slice and never touches the arena.
//
// An insert therefore costs one move per pending event due sooner than
// the new one, where a heap's costs grow with the log of the depth. That
// trade is made on a measured fact: the sweep's live queue is shallow
// (mean depth ~8, max 29 over the whole catalog), and at that depth the
// sorted slice beats a 4-ary heap; past a few dozen pending events the
// heap would win (BenchmarkEventQueueChurn at depths 8, 64 and 512 shows
// both sides). Every schedule samples the depth into QueueStats so the
// depth stays a measured fact, and the quick-catalog golden test fails
// when a run goes deeper than designDepth.
//
// # Allocation and layout contract
//
// The engine is built for allocation-free, cache-resident steady-state
// operation:
//
//   - Timers live in an engine-owned arena recycled through a free list;
//     a slot holds only the event argument, its generation and its
//     free-list link — 24 bytes. The event's kind travels in the queue
//     entry (it fits the entry's alignment padding), so dispatch never
//     waits on an extra arena load.
//   - Queue entries are 24 bytes and embed the full ordering key
//     (at, seq) next to the arena slot index, so ordering an insert reads
//     only the contiguous entry slice and never chases a pointer into
//     the arena. Moving an entry writes nothing to the arena: a slot does
//     not know where its entry sits, and Cancel finds it by scanning.
//   - Reset returns an engine to time zero while keeping the arena and
//     queue at their grown capacity; core's pooled networks each own one
//     engine, so a sweep of thousands of simulation cells re-grows these
//     structures once per worker instead of once per cell.
//
// # Event-count reduction: tickets and inline claims
//
// Models that multiplex several logical events through one timer (the
// netsim.Link drain, the tcp.Subflow pacer) reserve a Ticket per logical
// event up front and arm the shared timer under the earliest pending
// ticket. When that timer fires, the model may process its successor
// logical events inline — without a round-trip through the queue — by
// asking RunsNext whether each successor would be the next event the
// engine dispatched anyway. This batching is exact: execution order, and
// therefore every tie-break and every byte of experiment output, is
// identical to scheduling each logical event individually. Processed
// counts queue dispatches, Coalesced counts logical events claimed
// inline; their sum is the logical event total.
//
// Once the arena and queue have grown to a simulation's working set,
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
// SetBudget caps the queue dispatches of RunUntil and RunUntilQuiet, and
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
// Schedule closure form.
type EventKind uint8

// kindClosure is the built-in kind backing Schedule: the event
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
// the Schedule* and At* methods. The zero value is inert: Cancel is a no-op
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

// Cancel removes the timer from the queue eagerly — queue entry and
// arena slot both, so arm/cancel churn stays allocation-free and Pending
// never counts a cancelled timer. It scans from the tail (the soonest
// events) for the timer's entry and closes the gap; it runs on RTO
// disarm and on Close, not per packet. Cancelling an already-fired or
// already-cancelled timer — or the zero Timer — is a no-op.
func (t Timer) Cancel() {
	e := t.e
	if e == nil || e.arena[t.slot].gen != t.gen {
		return // zero Timer, already fired, cancelled, or slot reused
	}
	q := e.queue
	i := len(q) - 1
	for q[i].slot != t.slot {
		i--
	}
	if q[i].kind&daemonMark != 0 {
		e.daemons--
	}
	e.queue = append(q[:i], q[i+1:]...)
	e.freeSlot(t.slot)
}

// slot is one arena entry: the event argument and its generation. The
// ordering key and the event kind live in the queue entry itself, not
// here; while the slot is free, next links the free list.
type slot struct {
	arg  any
	gen  uint32
	next int32
}

// queueEnt is one event-queue entry: the full ordering key packed next
// to the arena slot index and the event kind (which rides in what would
// otherwise be alignment padding — the entry stays 24 bytes). less never
// touches the arena — comparisons stay inside the contiguous queue slice.
// A daemon event carries daemonMark in its kind byte rather than in a
// field of its own: the compiler keeps structs of up to four fields in
// registers, and a fifth grew the old heap's sift-down by a quarter
// (fig14 ran ~8 % slower with it).
type queueEnt struct {
	at   Time
	seq  uint64
	slot int32
	kind EventKind
}

// daemonMark is the bit of queueEnt.kind that marks a daemon event; kinds
// proper stay below it (maxKinds).
const daemonMark EventKind = 0x80

// less orders entries by (at, seq): earliest first, scheduling order
// breaking ties — the determinism invariant every model relies on.
func less(a, b queueEnt) bool {
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
	// queue is the pending events in descending (at, seq) order: the
	// next dispatch is the last entry.
	queue []queueEnt
	seq   uint64
	// qstats is the per-run queue telemetry, flushed by Reset.
	qstats queueCounters
	// limit bounds inline claims (RunsNext): Run lifts it to maxTime,
	// RunUntil to its deadline, so a batching drain can never advance
	// the clock past what the run loop itself would dispatch. Outside a
	// run loop it is -1 (below any valid time) and RunsNext declines
	// every claim.
	limit Time
	// processed counts queue events dispatched; coalesced counts logical
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
	// rec is the traced cell's recorder, nil on every other engine: the
	// engine records each dispatch (queue and inline claims) into
	// rec.Flight, and the models it drives read it through Recorder.
	rec *obs.CellRecorder
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

// TotalEvents returns the process-wide counters of queue events
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
// retaining the arena and queue at their grown capacity so the next
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
		s.next = int32(i) - 1 // chain the free list through all slots
	}
	e.freeHead = noSlot
	if n := len(e.arena); n > 0 {
		e.freeHead = int32(n - 1)
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.coalesced = 0
	e.daemons = 0
	e.budget = math.MaxUint64
	e.exhausted = false
	e.limit = noRunLimit
	e.curSeq = uint64(idleTicket)
	e.rec = nil
}

// Observe installs the recorder of a traced cell: the engine's
// dispatches and every hook of the models it drives (links, subflows,
// schedulers) record into it until Reset drops it, so a pooled engine
// never carries a recorder into its next cell.
func (e *Engine) Observe(rec *obs.CellRecorder) { e.rec = rec }

// Recorder returns the recorder Observe installed, or nil when the
// engine's cell is not traced.
func (e *Engine) Recorder() *obs.CellRecorder { return e.rec }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of queue events dispatched so far.
func (e *Engine) Processed() uint64 { return e.processed }

// SetBudget caps the queue dispatches of RunUntil and RunUntilQuiet at n
// until Reset.
func (e *Engine) SetBudget(n uint64) { e.budget = n }

// Exhausted reports whether the last RunUntil or RunUntilQuiet stopped
// on the budget with an event still due.
func (e *Engine) Exhausted() bool { return e.exhausted }

// Coalesced returns the number of logical events claimed inline via
// RunsNext so far (events that did not round-trip through the queue).
func (e *Engine) Coalesced() uint64 { return e.coalesced }

// CurrentTicket returns the tie-break position of the event being
// dispatched right now — a queue event's sequence number, or the claimed
// ticket inside a RunsNext batch — and idleTicket (the maximum Ticket)
// when no event is running. A model that accounts sub-events lazily
// instead of scheduling them (the link serializer's departures) uses it
// to reproduce the eager scheme's same-instant semantics exactly: a
// sub-event keyed (t, tk) has logically completed iff t is in the past,
// or t is now and tk sorts before the running event's position.
func (e *Engine) CurrentTicket() Ticket { return Ticket(e.curSeq) }

// Pending returns the number of events waiting in the queue. Cancelled
// timers are never counted: Cancel removes them eagerly.
func (e *Engine) Pending() int { return len(e.queue) }

// peekHead returns the (at, seq) ordering key of the queue's head event,
// its last entry.
func (e *Engine) peekHead() (Time, uint64, bool) {
	n := len(e.queue) - 1
	if n < 0 {
		return 0, 0, false
	}
	return e.queue[n].at, e.queue[n].seq, true
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
	return e.at(e.now+delay, fn)
}

// at arranges for fn to run at absolute virtual time t. If t is in the
// past it is clamped to the current time.
func (e *Engine) at(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: Schedule called with nil function")
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
// logical events inline instead of re-arming through the queue; because
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
	if e.rec != nil {
		e.rec.Flight.Record(obs.EngineEvent{At: t, Ticket: uint64(tk), Kind: obs.KindCoalesced, Coalesced: true})
	}
	return true
}

// schedule places (kind, arg) into the arena and queue under a fresh
// sequence number.
func (e *Engine) schedule(t Time, kind EventKind, arg any) Timer {
	e.seq++
	return e.scheduleSeq(t, e.seq, kind, arg)
}

// scheduleSeq places (kind, arg) into the arena and queue under an
// explicit tie-break sequence number. A kind carrying daemonMark has
// already been counted in e.daemons by its caller.
//
// The entry is appended and then walked toward the front past every
// pending event due before it, each moving up one place. It is a loop,
// not copy: an insert moves about two entries on average over the
// catalog, too few to pay for the call.
func (e *Engine) scheduleSeq(t Time, seq uint64, kind EventKind, arg any) Timer {
	if t < e.now {
		t = e.now
	}
	si := e.allocSlot()
	s := &e.arena[si]
	s.arg = arg
	gen := s.gen
	ent := queueEnt{at: t, seq: seq, slot: si, kind: kind}
	q := append(e.queue, ent)
	i := len(q) - 1
	for i > 0 && less(q[i-1], ent) {
		q[i] = q[i-1]
		i--
	}
	q[i] = ent
	e.queue = q
	// Depth telemetry: one sample per scheduled event (a handful of
	// integer ops — the counters ride in the engine and flush on Reset).
	d := uint64(len(q))
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
		e.freeHead = e.arena[si].next
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
	s.next = e.freeHead
	e.freeHead = si
}

// step executes the single earliest pending event and returns true, or
// returns false if the queue is empty.
func (e *Engine) step() bool {
	n := len(e.queue) - 1
	if n < 0 {
		return false
	}
	ent := e.queue[n]
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
	if e.rec != nil {
		e.rec.Flight.Record(obs.EngineEvent{At: ent.at, Ticket: ent.seq, Kind: uint8(kind)})
	}
	arg := e.arena[ent.slot].arg
	// Retire the slot before running the handler so the event can
	// reschedule (reusing this very slot) and so its own handle is
	// already stale inside the handler.
	e.queue = e.queue[:n]
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
