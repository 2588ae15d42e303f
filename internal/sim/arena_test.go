package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// The timer arena recycles slots through a free list and hands out
// generation-checked handles. These tests pin the safety properties of
// that reuse and the eager-removal behaviour of Cancel.

func TestZeroTimerIsInert(t *testing.T) {
	var tm Timer
	tm.Cancel() // must not panic
	if tm.Active() {
		t.Fatal("zero Timer reports Active")
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	e := New()
	tm := e.Schedule(time.Millisecond, func() {})
	e.Run()
	if tm.Active() {
		t.Fatal("fired timer reports Active")
	}
	tm.Cancel() // slot already recycled; must be a no-op
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after no-op cancel, want 0", e.Pending())
	}
}

func TestStaleHandleCannotCancelReusedSlot(t *testing.T) {
	e := New()
	first := e.Schedule(time.Millisecond, func() {})
	first.Cancel()
	// The freed slot is reused by the very next schedule.
	fired := false
	second := e.Schedule(2*time.Millisecond, func() { fired = true })
	first.Cancel() // stale generation: must not touch the reused slot
	if !second.Active() {
		t.Fatal("fresh timer deactivated by a stale handle")
	}
	e.Run()
	if !fired {
		t.Fatal("reused-slot timer did not fire")
	}
}

func TestDoubleCancelIsNoOp(t *testing.T) {
	e := New()
	tm := e.Schedule(time.Millisecond, func() {})
	keep := e.Schedule(2*time.Millisecond, func() {})
	tm.Cancel()
	tm.Cancel() // second cancel must not disturb the queue
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	if !keep.Active() {
		t.Fatal("unrelated timer lost to a double cancel")
	}
}

func TestCancelRemovesEagerly(t *testing.T) {
	e := New()
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after cancelling everything, want 0 (no dead entries may linger)", e.Pending())
	}
}

func TestRunUntilWithCancelledHead(t *testing.T) {
	e := New()
	head := e.Schedule(time.Millisecond, func() { t.Fatal("cancelled head fired") })
	var at Time
	e.Schedule(2*time.Millisecond, func() { at = e.Now() })
	head.Cancel()
	e.RunUntil(5 * time.Millisecond)
	if at != 2*time.Millisecond {
		t.Fatalf("survivor ran at %v, want 2ms", at)
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
}

func TestRescheduleFromCallbackReusesSlot(t *testing.T) {
	e := New()
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 1000 {
			e.Schedule(time.Microsecond, hop)
		}
	}
	e.Schedule(0, hop)
	e.Run()
	if hops != 1000 {
		t.Fatalf("hops = %d, want 1000", hops)
	}
	// A self-rescheduling chain must recycle one arena slot, not grow one
	// per hop.
	if len(e.arena) > 2 {
		t.Fatalf("arena grew to %d slots for a 1-deep chain", len(e.arena))
	}
}

// testPayload and the test kinds below exercise the typed-event path.
// RegisterKind is init-only, so test kinds are registered at package
// level like model kinds are.
type testPayload struct{ hits int }

var (
	kindTestNop   = RegisterKind("sim.test.nop", func(any) {})
	kindTestInc   = RegisterKind("sim.test.inc", func(a any) { a.(*testPayload).hits++ })
	kindTestInc10 = RegisterKind("sim.test.inc10", func(a any) { a.(*testPayload).hits += 10 })
)

func TestScheduleEventPassesArg(t *testing.T) {
	e := New()
	p := &testPayload{}
	e.ScheduleEvent(time.Millisecond, kindTestInc, p)
	e.AtEvent(2*time.Millisecond, kindTestInc10, p)
	e.Run()
	if p.hits != 11 {
		t.Fatalf("hits = %d, want 11", p.hits)
	}
}

func TestAtEventUnregisteredKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AtEvent with an unregistered kind did not panic")
		}
	}()
	New().AtEvent(0, EventKind(maxKinds-1), nil)
}

func TestKindName(t *testing.T) {
	if got := KindName(kindTestNop); got != "sim.test.nop" {
		t.Fatalf("KindName = %q, want sim.test.nop", got)
	}
	if got := KindName(kindClosure); got != "sim.closure" {
		t.Fatalf("KindName(kindClosure) = %q", got)
	}
}

// TestHeapMatchesReferenceUnderChurn drives the engine's queue against
// container/heap with a mixed schedule/cancel/pop workload and
// checks the pop order matches exactly — the (at, seq) total order is
// what the byte-identity contract of every experiment rests on.
func TestHeapMatchesReferenceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New()
	ref := &refHeap{}
	heap.Init(ref)
	type pair struct {
		tm  Timer
		ev  *refEvent
		idx int
	}
	var live []pair
	var got, want []int
	next := 0
	for round := 0; round < 5000; round++ {
		switch op := rng.Intn(10); {
		case op < 5: // schedule
			// At clamps a past time to now; the reference keys the
			// event by the time it was really scheduled for.
			at := max(Time(rng.Intn(1000))*time.Millisecond, e.Now())
			idx := next
			next++
			tm := e.At(at, func() { got = append(got, idx) })
			ev := &refEvent{at: at, seq: uint64(round), idx: idx}
			heap.Push(ref, ev)
			live = append(live, pair{tm, ev, idx})
		case op < 7 && len(live) > 0: // cancel a random live timer
			i := rng.Intn(len(live))
			p := live[i]
			if p.tm.Active() {
				p.tm.Cancel()
				p.ev.cancelled = true
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // pop one event from both
			if e.step() {
				for ref.Len() > 0 {
					ev := heap.Pop(ref).(*refEvent)
					if !ev.cancelled {
						want = append(want, ev.idx)
						break
					}
				}
			}
		}
	}
	// Drain the rest.
	e.Run()
	for ref.Len() > 0 {
		ev := heap.Pop(ref).(*refEvent)
		if !ev.cancelled {
			want = append(want, ev.idx)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, reference popped %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop %d: got event %d, reference says %d", i, got[i], want[i])
		}
	}
}

// refEvent/refHeap is a container/heap reference implementation ordered
// by (at, seq), the order the engine's queue promises.
type refEvent struct {
	at        Time
	seq       uint64
	idx       int
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestSteadyStateSchedulingAllocates0 pins the arena contract: once the
// queue and arena are warm, closure-free scheduling and firing allocate
// nothing, and every scheduled event is dispatched exactly once.
func TestSteadyStateSchedulingAllocates0(t *testing.T) {
	e := New()
	cycle := func() {
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(time.Duration(i)*time.Millisecond, kindTestNop, nil)
		}
		e.Run()
	}
	cycle() // warm the arena/queue to the working-set size
	const runs = 100
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("steady-state schedule+run allocates %v per cycle, want 0", avg)
	}
	// The warm-up, AllocsPerRun's own, and the measured cycles.
	if got := e.Processed() + e.Coalesced(); got != 64*(runs+2) {
		t.Fatalf("%d events dispatched for %d scheduled", got, 64*(runs+2))
	}
}

// TestCancelAllocates0 pins that arm/cancel churn (the RTO pattern) is
// allocation-free too.
func TestCancelAllocates0(t *testing.T) {
	e := New()
	tm := e.ScheduleEvent(time.Millisecond, kindTestNop, nil)
	tm.Cancel()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tm := e.ScheduleEvent(time.Millisecond, kindTestNop, nil)
			tm.Cancel()
		}
	})
	if avg != 0 {
		t.Fatalf("arm/cancel churn allocates %v per cycle, want 0", avg)
	}
}

// BenchmarkEngineScheduleEventRun is the typed counterpart of
// BenchmarkEngineScheduleRun: 1000 events scheduled and drained per
// iteration, with the engine (and its arena) reused across iterations as
// a simulation would.
func BenchmarkEngineScheduleEventRun(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			e.ScheduleEvent(time.Duration(j)*time.Microsecond, kindTestNop, nil)
		}
		e.Run()
	}
	b.ReportMetric(float64(e.Processed()+e.Coalesced())/float64(b.N), "events/op")
}

// BenchmarkEngineCancel measures the arm/cancel cycle (the per-segment
// RTO pattern) on a warm arena.
func BenchmarkEngineCancel(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.ScheduleEvent(time.Millisecond, kindTestNop, nil)
		tm.Cancel()
	}
}
