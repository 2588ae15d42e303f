package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// oracleQueue is a container/heap reference ordered by the same (at, seq)
// key the engine promises — the oracle the engine's sorted-slice queue is
// driven against under randomized churn.
type oracleQueue []oracleEvent

type oracleEvent struct {
	at  Time
	seq uint64
	id  int
}

func (q oracleQueue) Len() int      { return len(q) }
func (q oracleQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q oracleQueue) Less(a, b int) bool {
	if q[a].at != q[b].at {
		return q[a].at < q[b].at
	}
	return q[a].seq < q[b].seq
}
func (q *oracleQueue) Push(x any) { *q = append(*q, x.(oracleEvent)) }
func (q *oracleQueue) Pop() any   { old := *q; n := len(old) - 1; v := old[n]; *q = old[:n]; return v }

// remove deletes event id from the reference if it is still pending.
func (q *oracleQueue) remove(id int) {
	for i := range *q {
		if (*q)[i].id == id {
			heap.Remove(q, i)
			return
		}
	}
}

// stepOracle steps the engine and the oracle together and fails unless
// the engine fired exactly the oracle's head (fired is the log the event
// closures append their id to). It returns that id, or false when both
// were empty.
func stepOracle(t *testing.T, e *Engine, ref *oracleQueue, fired *[]int) (int, bool) {
	t.Helper()
	if ref.Len() == 0 {
		if e.step() {
			t.Fatal("engine stepped an event the oracle does not have")
		}
		return 0, false
	}
	want := heap.Pop(ref).(oracleEvent)
	n := len(*fired)
	if !e.step() || len(*fired) != n+1 || (*fired)[n] != want.id {
		t.Fatalf("dispatch order diverged: engine fired %v, oracle holds %d more and expected id %d (at %v seq %d)",
			(*fired)[n:], ref.Len(), want.id, want.at, want.seq)
	}
	return want.id, true
}

// churnModel drives one engine and the reference oracle through the
// same randomized schedule/cancel/reserve/run workload and fails on the
// first divergence in dispatch order, Pending or Active, or on a broken
// queue invariant. The time distribution mixes millisecond gaps with
// gaps of seconds and with same-instant ties.
func churnModel(t *testing.T, e *Engine, rng *rand.Rand, ops int) {
	t.Helper()
	ref := &oracleQueue{}
	var fired []int
	nextID := 0
	timers := map[int]Timer{}
	schedule := func() {
		var gap Time
		switch rng.Intn(10) {
		case 0: // whole milliseconds: same-instant ties, where seq decides
			gap = Time(rng.Intn(4)) * Time(time.Millisecond)
		case 1, 2, 3:
			gap = Time(rng.Int63n(int64(32 * time.Millisecond)))
		case 4, 5, 6:
			gap = Time(rng.Int63n(int64(time.Second)))
		case 7, 8:
			gap = Time(int64(time.Second) + rng.Int63n(int64(time.Second)))
		default:
			gap = Time(rng.Int63n(int64(10 * time.Second)))
		}
		id := nextID
		nextID++
		at := e.Now() + gap
		var tm Timer
		var seq uint64
		if rng.Intn(4) == 0 {
			tk := e.ReserveTicket()
			seq = uint64(tk)
			tm = e.AtTicket(at, tk, kindClosure, func() { fired = append(fired, id) })
		} else {
			tm = e.at(at, func() { fired = append(fired, id) })
			seq = e.seq
		}
		timers[id] = tm
		heap.Push(ref, oracleEvent{at: at, seq: seq, id: id})
	}
	cancelRandom := func() {
		for id, tm := range timers { // map order is as good a random pick as any
			tm.Cancel()
			if tm.Active() {
				t.Fatalf("timer %d still Active after Cancel", id)
			}
			tm.Cancel() // double-cancel must be a no-op
			delete(timers, id)
			ref.remove(id)
			return
		}
	}
	stepBoth := func() {
		if id, ok := stepOracle(t, e, ref, &fired); ok {
			delete(timers, id)
		}
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			schedule()
		case r < 7:
			cancelRandom()
		default:
			stepBoth()
		}
		if e.Pending() != ref.Len() {
			t.Fatalf("op %d: Pending = %d, reference holds %d", i, e.Pending(), ref.Len())
		}
		checkQueue(t, e)
		for id, tm := range timers {
			if !tm.Active() {
				t.Fatalf("op %d: timer %d inactive while the reference still holds it", i, id)
			}
			break // one spot-check per op keeps the loop O(ops)
		}
	}
	// Drain: every surviving event must come out in reference order.
	for ref.Len() > 0 {
		stepBoth()
	}
	if e.step() {
		t.Fatal("engine not empty after draining the reference")
	}
}

// slotSeen[s] == seenStamp marks arena slot s as met by the running
// checkQueue call; a call bumps the stamp instead of clearing (except
// when it wraps), so the check allocates only when the arena grows. This
// package's tests do not run in parallel.
var (
	slotSeen  []uint32
	seenStamp uint32
)

// checkQueue pins the two structural invariants the queue rests on: the
// slice is in strictly descending (at, seq) order, so its last entry is
// the next dispatch, and each arena slot appears in it at most once (what
// Cancel's scan for a slot relies on).
func checkQueue(t *testing.T, e *Engine) {
	t.Helper()
	if len(slotSeen) < len(e.arena) {
		slotSeen = make([]uint32, 2*len(e.arena))
	}
	if seenStamp++; seenStamp == 0 {
		clear(slotSeen)
		seenStamp = 1
	}
	for i, ent := range e.queue {
		if slotSeen[ent.slot] == seenStamp {
			t.Fatalf("slot %d appears twice in the queue (again at queue[%d])", ent.slot, i)
		}
		slotSeen[ent.slot] = seenStamp
		if i > 0 && !less(ent, e.queue[i-1]) {
			prev := e.queue[i-1]
			t.Fatalf("queue[%d] (%v, %d) does not sort before queue[%d] (%v, %d)", i, ent.at, ent.seq, i-1, prev.at, prev.seq)
		}
	}
}

// TestHeapQueueMatchesReferenceUnderChurn drives the engine against the
// container/heap oracle under randomized schedule/cancel/step workloads,
// reusing one engine through Reset as a pooled network does.
func TestHeapQueueMatchesReferenceUnderChurn(t *testing.T) {
	e := New()
	for seed := int64(101); seed <= 104; seed++ {
		churnModel(t, e, rand.New(rand.NewSource(seed)), 4000)
		e.Reset()
	}
}

// FuzzQueueOrdering feeds an op stream to the engine and the
// container/heap oracle side by side: schedules (with and without
// reserved tickets), cancels through possibly stale handles, and steps,
// asserting the engine fires the oracle's sequence and agrees with it on
// Pending and on every handle's Active, with the queue invariants holding
// after each op. The fuzzer owns the byte-to-op decoding, so crashing
// inputs shrink to readable op lists.
//
// Active is checked after each op on the live handles and on the one the
// op touched, and on every handle once more when the input ends, so the
// checks cost no more than the queue walk checkQueue makes after each
// op. No assertion is lost: a handle dies (its event fires or is
// cancelled) in the op that touches it, where it is checked, and a dead
// handle's Active can turn true again only if its arena slot's
// generation returns to the handle's. Every free of the slot bumps that
// generation by one, so that takes 2^32 frees, far more than the ops of
// any input.
func FuzzQueueOrdering(f *testing.F) {
	f.Add([]byte{0x10, 0x80, 0x02, 0x41, 0xff, 0x07, 0x30})
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0x80, 0x80, 0x80, 0x01, 0x02, 0x03})
	// Same-instant ties: a reserved ticket used late must still fire first.
	f.Add([]byte{0x10, 0x00, 0x05, 0x00, 0x00, 0x05, 0x10, 0x00, 0x05, 0x00, 0x00, 0x05, 0x03, 0x03, 0x03, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		ref := &oracleQueue{}
		var fired []int
		var timers []Timer // indexed by event id
		var pending []bool // indexed by event id: the oracle still holds it
		var live []int     // the ids the oracle still holds, in no order
		var liveAt []int   // indexed by event id: its index in live
		die := func(id int) {
			pending[id] = false
			last := live[len(live)-1]
			live[liveAt[id]], liveAt[last] = last, liveAt[id]
			live = live[:len(live)-1]
		}
		checkActive := func(id int) {
			if timers[id].Active() != pending[id] {
				t.Fatalf("timer %d: Active = %v, oracle pending = %v", id, timers[id].Active(), pending[id])
			}
		}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		for pos < len(data) {
			op := next()
			touched := -1
			switch op % 4 {
			case 0, 1: // schedule; gap spliced from the next two bytes (odd ops in ~16.8ms units)
				gap := Time(op%2)<<24*Time(next()) + Time(next())*1000
				id := len(timers)
				at := e.Now() + gap
				fn := func() { fired = append(fired, id) }
				pending = append(pending, true)
				liveAt = append(liveAt, len(live))
				live = append(live, id)
				if op&0x10 != 0 { // ticketed form
					tk := e.ReserveTicket()
					timers = append(timers, e.AtTicket(at, tk, kindClosure, fn))
					heap.Push(ref, oracleEvent{at: at, seq: uint64(tk), id: id})
				} else {
					timers = append(timers, e.at(at, fn))
					heap.Push(ref, oracleEvent{at: at, seq: e.seq, id: id})
				}
				touched = id
			case 2: // cancel by index — stale handles included on purpose
				if len(timers) > 0 {
					i := int(next()) % len(timers)
					timers[i].Cancel()
					if pending[i] {
						ref.remove(i)
						die(i)
					}
					touched = i
				}
			case 3:
				if id, ok := stepOracle(t, e, ref, &fired); ok {
					die(id)
					touched = id
				}
			}
			if e.Pending() != ref.Len() {
				t.Fatalf("Pending = %d, oracle holds %d", e.Pending(), ref.Len())
			}
			for _, id := range live {
				checkActive(id)
			}
			if touched >= 0 {
				checkActive(touched)
			}
			checkQueue(t, e)
		}
		for id := range timers {
			checkActive(id)
		}
		for ref.Len() > 0 {
			stepOracle(t, e, ref, &fired)
		}
		if e.step() {
			t.Fatal("engine still has events after the oracle drained")
		}
	})
}

// churnEngine builds the mixed workload of BenchmarkEventQueueChurn at
// one standing depth: a rotating pool of timers where each dispatch
// schedules a successor, and one in eight events is cancelled and
// rescheduled near (arm/cancel churn) and one in eight far in the
// future. Each step dispatches one event.
func churnEngine(depth int) *Engine {
	e := New()
	rng := NewRNG(7)
	var step func()
	victim := Timer{}
	n := 0
	step = func() {
		n++
		gap := Time(50_000 + rng.Intn(4_000_000)) // 50µs..4ms
		switch n % 8 {
		case 3:
			victim.Cancel()
			victim = e.at(e.Now()+Time(128<<24), func() {}) // ~2.1s out
		case 5:
			victim.Cancel()
			victim = e.at(e.Now()+gap, func() {})
		}
		e.Schedule(gap, step)
	}
	for i := 0; i < depth; i++ {
		e.at(Time(rng.Intn(4_000_000)), step)
	}
	return e
}

var churnDepths = []int{8, 64, 512}

// BenchmarkEventQueueChurn reports ns per event dispatched under
// churnEngine's workload.
func BenchmarkEventQueueChurn(b *testing.B) {
	for _, depth := range churnDepths {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			e := churnEngine(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.step()
			}
		})
	}
}

// TestQueueChurnAllocates0 pins the queue under schedule/cancel churn at
// every benchmarked depth: once the arena has grown to the standing
// depth, dispatching allocates nothing.
func TestQueueChurnAllocates0(t *testing.T) {
	for _, depth := range churnDepths {
		e := churnEngine(depth)
		steps := func() {
			for i := 0; i < 1000; i++ {
				e.step()
			}
		}
		steps() // warm the arena and queue
		if avg := testing.AllocsPerRun(20, steps); avg != 0 {
			t.Errorf("depth %d: %v allocations per 1000 events dispatched, want 0", depth, avg)
		}
	}
}
