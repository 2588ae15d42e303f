package sim

import (
	"testing"
	"time"
)

// batcher is a miniature of the multiplexing pattern netsim.Link and the
// tcp pacer use: logical events (each with a reserved ticket) funnel
// through one timer; the handler fires the head, then claims successors
// inline with RunsNext, re-arming through the queue only when a claim is
// refused.
type batcher struct {
	e     *Engine
	queue []struct {
		at Time
		tk Ticket
		id int
	}
	timer Timer
	fired []int
}

var kindBatch EventKind

func init() {
	kindBatch = RegisterKind("sim.test.batch", func(a any) { a.(*batcher).drain() })
}

// add reserves a ticket for a new logical event, exactly as scheduling it
// individually would have.
func (b *batcher) add(at Time, id int) {
	b.queue = append(b.queue, struct {
		at Time
		tk Ticket
		id int
	}{at, b.e.ReserveTicket(), id})
	if !b.timer.Active() {
		b.arm()
	}
}

func (b *batcher) arm() {
	h := b.queue[0]
	b.timer = b.e.AtTicket(h.at, h.tk, kindBatch, b)
}

func (b *batcher) drain() {
	b.timer = Timer{}
	for {
		h := b.queue[0]
		b.fired = append(b.fired, h.id)
		b.queue = b.queue[1:]
		if len(b.queue) == 0 {
			return
		}
		n := b.queue[0]
		if !b.e.RunsNext(n.at, n.tk) {
			b.arm()
			return
		}
	}
}

// TestBatcherMatchesUnbatchedOrder pins the core RunsNext guarantee:
// interleaving batched logical events with ordinary events produces
// exactly the execution order the unbatched schedule would.
func TestBatcherMatchesUnbatchedOrder(t *testing.T) {
	// Events at: batch 1ms, plain 1ms, batch 1ms, batch 2ms, plain 2ms,
	// batch 3ms. Scheduling order defines the tie-breaks.
	type ev struct {
		at      Time
		batched bool
		id      int
	}
	schedule := []ev{
		{1 * time.Millisecond, true, 0},
		{1 * time.Millisecond, false, 1},
		{1 * time.Millisecond, true, 2},
		{2 * time.Millisecond, true, 3},
		{2 * time.Millisecond, false, 4},
		{3 * time.Millisecond, true, 5},
	}
	// Reference: schedule everything as plain events.
	ref := New()
	var want []int
	for _, v := range schedule {
		id := v.id
		ref.Schedule(v.at, func() { want = append(want, id) })
	}
	ref.Run()

	// Batched: same schedule, batched events funnelled through one
	// multiplexed timer.
	e := New()
	var plain []int
	b := &batcher{e: e}
	for _, v := range schedule {
		if v.batched {
			b.add(v.at, v.id)
		} else {
			id := v.id
			e.Schedule(v.at, func() { plain = append(plain, id) })
		}
	}
	e.Run()
	// Check the interleaving: consuming `want` must drain b.fired and
	// plain as two orderly subsequences, which holds iff the merged
	// execution order matched the reference exactly.
	bi, ti := 0, 0
	for _, w := range want {
		if bi < len(b.fired) && b.fired[bi] == w {
			bi++
			continue
		}
		if ti < len(plain) && plain[ti] == w {
			ti++
			continue
		}
		t.Fatalf("execution order diverged at id %d: batched fired %v, plain fired %v, want %v", w, b.fired, plain, want)
	}
	if bi != len(b.fired) || ti != len(plain) {
		t.Fatalf("extra events fired: batched %v, plain %v, want %v", b.fired, plain, want)
	}
	// Assert at least one coalesce happened so the claim path is
	// actually exercised by this schedule.
	if e.Coalesced() == 0 {
		t.Fatal("no events were coalesced; RunsNext claim path not exercised")
	}
}

// TestRunsNextRefusesEarlierEvent: a claim must fail when any queued
// event sorts before the candidate.
func TestRunsNextRefusesEarlierEvent(t *testing.T) {
	e := New()
	refused := false
	e.Schedule(time.Millisecond, func() {
		tk := e.ReserveTicket()
		e.At(2*time.Millisecond, func() {}) // sorts before (earlier than 3ms)
		if e.RunsNext(3*time.Millisecond, tk) {
			t.Fatal("RunsNext claimed past an earlier queued event")
		}
		refused = true
	})
	e.Run()
	if !refused {
		t.Fatal("test body did not run")
	}
}

// TestRunsNextRefusesEarlierTicketAtSameInstant: tie-breaks count — a
// queued event at the same timestamp with an earlier ticket wins.
func TestRunsNextRefusesEarlierTicketAtSameInstant(t *testing.T) {
	e := New()
	checked := false
	e.Schedule(time.Millisecond, func() {
		e.At(e.Now(), func() {}) // same instant, earlier seq
		tk := e.ReserveTicket()  // later seq
		if e.RunsNext(e.Now(), tk) {
			t.Fatal("RunsNext claimed over a same-instant earlier-ticket event")
		}
		checked = true
	})
	e.Run()
	if !checked {
		t.Fatal("test body did not run")
	}
}

// TestRunsNextAllowsLaterTicketAtSameInstant: the claim succeeds when the
// queued competitor has a later ticket.
func TestRunsNextAllowsLaterTicketAtSameInstant(t *testing.T) {
	e := New()
	checked := false
	e.Schedule(time.Millisecond, func() {
		tk := e.ReserveTicket() // earlier seq
		e.At(e.Now(), func() {})
		if !e.RunsNext(e.Now(), tk) {
			t.Fatal("RunsNext refused although the candidate sorts first")
		}
		checked = true
	})
	e.Run()
	if !checked {
		t.Fatal("test body did not run")
	}
	if e.Coalesced() != 1 {
		t.Fatalf("Coalesced() = %d, want 1", e.Coalesced())
	}
}

// TestRunsNextFailsOutsideRunLoop: direct step callers get strict
// one-event-per-step semantics — no inline claims.
func TestRunsNextFailsOutsideRunLoop(t *testing.T) {
	e := New()
	claimed := false
	e.Schedule(time.Millisecond, func() {
		tk := e.ReserveTicket()
		claimed = e.RunsNext(e.Now(), tk)
	})
	e.step()
	if claimed {
		t.Fatal("RunsNext claimed outside Run/RunUntil")
	}
}

// TestRunsNextRespectsDeadline: RunUntil's deadline bounds inline claims
// exactly as it bounds queue dispatches.
func TestRunsNextRespectsDeadline(t *testing.T) {
	e := New()
	var early, late bool
	e.Schedule(time.Millisecond, func() {
		early = e.RunsNext(4*time.Millisecond, e.ReserveTicket())
		late = e.RunsNext(6*time.Millisecond, e.ReserveTicket())
	})
	e.RunUntil(5 * time.Millisecond)
	if !early {
		t.Fatal("claim within the deadline refused")
	}
	if late {
		t.Fatal("claim beyond the RunUntil deadline succeeded")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

// TestCancelPendingBatchedDrain: cancelling the armed timer of a
// multiplexed batch removes it eagerly; none of the batched logical
// events fire, and re-adding re-arms cleanly.
func TestCancelPendingBatchedDrain(t *testing.T) {
	e := New()
	b := &batcher{e: e}
	b.add(time.Millisecond, 0)
	b.add(time.Millisecond, 1)
	b.add(2*time.Millisecond, 2)
	b.timer.Cancel()
	e.Run()
	if len(b.fired) != 0 {
		t.Fatalf("cancelled batch fired %v", b.fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancel, want 0", e.Pending())
	}
	// Re-arm under the still-pending head ticket: the batch replays in
	// original ticket order even after the cancel.
	b.arm()
	e.Run()
	if len(b.fired) != 3 || b.fired[0] != 0 || b.fired[1] != 1 || b.fired[2] != 2 {
		t.Fatalf("re-armed batch fired %v, want [0 1 2]", b.fired)
	}
}

// TestReserveTicketInsideBatch: reserving a ticket while handling a
// coalesced (inline-claimed) event allocates positions after every
// already-reserved ticket, so a newly scheduled event cannot jump ahead
// of the rest of the batch.
func TestReserveTicketInsideBatch(t *testing.T) {
	e := New()
	var order []int
	b := &batcher{e: e}
	b.add(time.Millisecond, 0)
	b.add(time.Millisecond, 1)
	e.Schedule(time.Millisecond, func() { order = append(order, 100) })
	// While the batch drains (id 0 fires, id 1 coalesces), a
	// same-instant event scheduled from inside the batch must run after
	// everything already queued.
	e.Schedule(0, func() {
		e.At(time.Millisecond, func() { order = append(order, 200) })
	})
	e.Run()
	want := []int{100, 200}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("plain order = %v, want %v", order, want)
	}
	if len(b.fired) != 2 {
		t.Fatalf("batch fired %v, want [0 1]", b.fired)
	}
}

// TestResetWithCoalescedInFlight: Reset with an armed batch timer and
// pending logical tickets leaves the engine factory-clean and flushes
// both counters into the process totals.
func TestResetWithCoalescedInFlight(t *testing.T) {
	e := New()
	b := &batcher{e: e}
	b.add(time.Millisecond, 0)
	b.add(time.Millisecond, 1)
	b.add(time.Millisecond, 2)
	e.Run() // head fires, 1 and 2 coalesce
	if e.Coalesced() != 2 {
		t.Fatalf("Coalesced() = %d, want 2", e.Coalesced())
	}
	// Arm a fresh batch, leave it in flight, then Reset.
	b.queue = b.queue[:0]
	b.fired = b.fired[:0]
	b.add(time.Millisecond, 3)
	b.add(time.Millisecond, 4)

	beforeP, beforeC := TotalEvents()
	p, c := e.Processed(), e.Coalesced()
	e.Reset()
	afterP, afterC := TotalEvents()
	if afterP-beforeP != p || afterC-beforeC != c {
		t.Fatalf("Reset flushed (%d,%d) into totals, want (%d,%d)",
			afterP-beforeP, afterC-beforeC, p, c)
	}
	if e.Processed() != 0 || e.Coalesced() != 0 || e.Pending() != 0 || e.Now() != 0 {
		t.Fatal("Reset left residue")
	}
	if b.timer.Active() {
		t.Fatal("pre-Reset batch timer still Active")
	}
	// The reset engine must refuse claims until a run loop is live again
	// (limit is cleared), and replay deterministically.
	if e.RunsNext(0, e.ReserveTicket()) {
		t.Fatal("RunsNext claimed on a reset engine outside a run loop")
	}
}
