package sim

import (
	"testing"
	"time"
)

// TestResetClearsQueueAndClock: a reset engine looks factory-new.
func TestResetClearsQueueAndClock(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(time.Millisecond, func() { fired++ })
	e.Schedule(2*time.Millisecond, func() { fired++ })
	e.RunUntil(time.Millisecond) // leaves one event queued, clock at 1ms
	e.Reset()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v after Reset, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", e.Pending())
	}
	if e.Processed() != 0 {
		t.Fatalf("Processed() = %d after Reset, want 0", e.Processed())
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("events fired = %d, want 1 (the pre-Reset pending event must not survive)", fired)
	}
}

// TestResetInvalidatesHandles: Timer handles from before a Reset are
// stale — Active is false and Cancel is a no-op even though their slots
// were recycled.
func TestResetInvalidatesHandles(t *testing.T) {
	e := New()
	stale := e.Schedule(time.Millisecond, func() {})
	e.Reset()
	if stale.Active() {
		t.Fatal("pre-Reset handle still Active")
	}
	fired := false
	fresh := e.Schedule(time.Millisecond, func() { fired = true })
	stale.Cancel() // must not cancel the unrelated reused slot
	if !fresh.Active() {
		t.Fatal("stale Cancel killed a post-Reset timer")
	}
	e.Run()
	if !fired {
		t.Fatal("post-Reset timer did not fire")
	}
}

// TestResetIsDeterministic: a reused engine replays a schedule with the
// same execution order and timestamps as a fresh one — the property the
// network pool's byte-identical-output contract rests on.
func TestResetIsDeterministic(t *testing.T) {
	run := func(e *Engine) []int {
		var got []int
		for i := 0; i < 50; i++ {
			i := i
			// Many ties at the same timestamp exercise the seq reset.
			e.Schedule(time.Duration(i%7)*time.Millisecond, func() { got = append(got, i) })
		}
		e.Run()
		return got
	}
	e := New()
	fresh := run(e)
	e.Reset()
	reused := run(e)
	if len(fresh) != len(reused) {
		t.Fatalf("event counts differ: %d vs %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("execution order diverged at %d: fresh %v, reused %v", i, fresh, reused)
		}
	}
}

// TestResetReusesArenaCapacity: after Reset, scheduling within the old
// working set performs no arena or queue growth.
func TestResetReusesArenaCapacity(t *testing.T) {
	e := New()
	for i := 0; i < 256; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	e.Run()
	e.Reset()
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 256; i++ {
			e.ScheduleEvent(time.Duration(i)*time.Microsecond, kindTestNop, nil)
		}
		e.Run()
		e.Reset()
	})
	if avg != 0 {
		t.Fatalf("reused engine allocates %v per 256-event batch, want 0", avg)
	}
}
