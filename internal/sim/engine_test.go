package sim

import (
	"testing"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleRunsInOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTiesBreakByScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	e := New()
	var at time.Duration
	e.Schedule(42*time.Millisecond, func() { at = e.Now() })
	e.Run()
	if at != 42*time.Millisecond {
		t.Fatalf("event saw Now() = %v, want 42ms", at)
	}
	if e.Now() != 42*time.Millisecond {
		t.Fatalf("final Now() = %v, want 42ms", e.Now())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(10*time.Millisecond, func() {
		e.Schedule(-time.Second, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now() = %v, want 10ms", e.Now())
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := New()
	fired := false
	tm := e.Schedule(time.Millisecond, func() { fired = true })
	tm.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatal("Active() = true after Cancel")
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.Schedule(time.Millisecond, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("Now() = %v, want 99ms", e.Now())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	e.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %d events after Run, want 3", len(fired))
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	e := New()
	e.RunUntil(5 * time.Second)
	if e.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", e.Now())
	}
}

func TestProcessedCounts(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	tm := e.Schedule(time.Millisecond, func() {})
	tm.Cancel()
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7 (cancelled events excluded)", e.Processed())
	}
}

func TestAtClampsPastTimes(t *testing.T) {
	e := New()
	var at time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 10*time.Millisecond {
		t.Fatalf("past-scheduled event ran at %v, want 10ms", at)
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	New().Schedule(0, nil)
}

// TestEventBudget: a zero-delay event that reschedules itself never lets
// virtual time advance. Under a budget, both run loops stop after
// exactly the budget's dispatches and report it; a run that finishes
// within its budget reports nothing, and Reset lifts the budget.
func TestEventBudget(t *testing.T) {
	const budget = 1000
	for _, quiet := range []bool{false, true} {
		e := New()
		run := func() bool { return e.RunUntilQuiet(time.Second) }
		if !quiet {
			run = func() bool { e.RunUntil(time.Second); return false }
		}
		var runaway func()
		runaway = func() { e.Schedule(0, runaway) }
		e.Schedule(time.Millisecond, runaway)
		e.SetBudget(budget)
		if run() {
			t.Fatal("a runaway run reported quiescence")
		}
		if !e.Exhausted() || e.Processed() != budget {
			t.Fatalf("quiet=%v: exhausted=%v after %d dispatches, want true after %d", quiet, e.Exhausted(), e.Processed(), budget)
		}
		if e.Now() != time.Millisecond || e.Pending() != 1 {
			t.Fatalf("quiet=%v: clock %v with %d pending, want the last dispatch's 1ms and the next event queued", quiet, e.Now(), e.Pending())
		}

		// Exactly the budget's dispatches, then nothing more due: not
		// exhausted.
		e.Reset()
		e.SetBudget(3)
		for i := 0; i < 3; i++ {
			e.Schedule(time.Millisecond, func() {})
		}
		run()
		if e.Exhausted() || e.Processed() != 3 {
			t.Fatalf("quiet=%v: a run within its budget reported exhausted=%v after %d dispatches", quiet, e.Exhausted(), e.Processed())
		}

		// Reset lifts the budget.
		e.Reset()
		left := 10 * budget
		var chain func()
		chain = func() {
			if left--; left > 0 {
				e.Schedule(0, chain)
			}
		}
		e.Schedule(0, chain)
		run()
		if e.Exhausted() || e.Processed() != 10*budget {
			t.Fatalf("quiet=%v: after Reset, exhausted=%v after %d dispatches, want the whole %d-event chain", quiet, e.Exhausted(), e.Processed(), 10*budget)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		e.Run()
		events += e.Processed() + e.Coalesced()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
