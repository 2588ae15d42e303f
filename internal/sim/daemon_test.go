package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// kindTestCall runs its func() argument — the typed twin of kindClosure,
// so tests can put a closure behind ScheduleDaemon.
var kindTestCall EventKind

func init() {
	kindTestCall = RegisterKind("sim.test.call", func(a any) { a.(func())() })
}

const ms = time.Millisecond

// onHeap runs f on a fresh engine as the subtest "heap", the leaf name
// these cases are tracked under.
func onHeap(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Run("heap", func(t *testing.T) { f(t, New()) })
}

func TestQueueEntStays24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(queueEnt{}); got != 24 {
		t.Fatalf("queueEnt is %d bytes, want 24: the daemon mark must ride in the padding", got)
	}
}

// TestDaemonContract is the table of what RunUntilQuiet promises.
func TestDaemonContract(t *testing.T) {
	// ticker arms a daemon that re-arms itself every period, logging each
	// tick as name@time.
	ticker := func(e *Engine, log *[]string, name string, period Time) {
		var tick func()
		tick = func() {
			*log = append(*log, fmt.Sprintf("%s@%v", name, e.Now()))
			e.ScheduleDaemon(period, kindTestCall, tick)
		}
		e.ScheduleDaemon(0, kindTestCall, tick)
	}
	live := func(e *Engine, log *[]string, name string, at Time) Timer {
		return e.At(at, func() { *log = append(*log, fmt.Sprintf("%s@%v", name, e.Now())) })
	}
	want := func(t *testing.T, log []string, exp ...string) {
		t.Helper()
		if fmt.Sprint(log) != fmt.Sprint(exp) {
			t.Fatalf("dispatched %v, want %v", log, exp)
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"quiet run leaves the daemons queued and resumable", func(t *testing.T, e *Engine) {
			var log []string
			ticker(e, &log, "d", 10*ms)
			live(e, &log, "a", 15*ms)
			if !e.RunUntilQuiet(time.Second) {
				t.Fatal("RunUntilQuiet = false, want quiet")
			}
			want(t, log, "d@0s", "d@10ms", "a@15ms")
			if e.Now() != 15*ms || e.Pending() != 1 || e.Processed() != 3 {
				t.Fatalf("after the quiet run: now %v, %d pending, %d processed; want 15ms, 1, 3", e.Now(), e.Pending(), e.Processed())
			}
			e.RunUntil(30 * ms)
			want(t, log, "d@0s", "d@10ms", "a@15ms", "d@20ms", "d@30ms")
		}},
		{"empty queue is quiet at once", func(t *testing.T, e *Engine) {
			e.RunUntil(5 * ms)
			if !e.RunUntilQuiet(time.Second) || e.Now() != 5*ms {
				t.Fatalf("quiet run on an empty queue moved the clock to %v", e.Now())
			}
		}},
		{"all-daemon queue is quiet at once", func(t *testing.T, e *Engine) {
			var log []string
			ticker(e, &log, "d", 10*ms)
			if !e.RunUntilQuiet(time.Second) || e.Now() != 0 || len(log) != 0 || e.Pending() != 1 {
				t.Fatalf("quiet = clock %v, log %v, %d pending; want nothing dispatched", e.Now(), log, e.Pending())
			}
		}},
		{"daemons ahead of a live event fire in ticket order", func(t *testing.T, e *Engine) {
			var log []string
			live(e, &log, "a", 10*ms)
			e.ScheduleDaemon(10*ms, kindTestCall, func() { log = append(log, "d1") })
			live(e, &log, "b", 10*ms)
			e.ScheduleDaemon(10*ms, kindTestCall, func() { log = append(log, "d2") })
			if !e.RunUntilQuiet(time.Second) {
				t.Fatal("not quiet")
			}
			// d2 sorts after the last live event: nothing would read it.
			want(t, log, "a@10ms", "d1", "b@10ms")
		}},
		{"a live event scheduled by a daemon-preceded handler keeps the run alive", func(t *testing.T, e *Engine) {
			var log []string
			ticker(e, &log, "d", 10*ms)
			e.At(5*ms, func() { live(e, &log, "late", 25*ms) })
			if !e.RunUntilQuiet(time.Second) {
				t.Fatal("not quiet")
			}
			want(t, log, "d@0s", "d@10ms", "d@20ms", "late@25ms")
		}},
		{"cancelling a daemon keeps the count exact", func(t *testing.T, e *Engine) {
			var log []string
			d := e.ScheduleDaemon(10*ms, kindTestCall, func() { log = append(log, "d") })
			e.ScheduleDaemon(40*ms, kindTestCall, func() { log = append(log, "far") })
			live(e, &log, "a", 20*ms)
			d.Cancel()
			d.Cancel()
			if e.daemons != 1 {
				t.Fatalf("daemons = %d after cancelling one of two, want 1", e.daemons)
			}
			if !e.RunUntilQuiet(time.Second) || e.Pending() != 1 {
				t.Fatalf("not quiet with %d pending", e.Pending())
			}
			want(t, log, "a@20ms")
			// Cancelling a live timer must not touch the count either.
			l := live(e, &log, "b", 30*ms)
			l.Cancel()
			if e.daemons != 1 || !e.RunUntilQuiet(time.Second) {
				t.Fatalf("daemons = %d after cancelling a live timer, want 1 and quiet", e.daemons)
			}
		}},
		{"Reset zeroes the count", func(t *testing.T, e *Engine) {
			var log []string
			ticker(e, &log, "d", 10*ms)
			e.Reset()
			if e.daemons != 0 || e.Pending() != 0 {
				t.Fatalf("after Reset: %d daemons, %d pending", e.daemons, e.Pending())
			}
			live(e, &log, "a", 10*ms)
			if !e.RunUntilQuiet(time.Second) {
				t.Fatal("not quiet")
			}
			want(t, log, "a@10ms")
		}},
		{"the deadline ends the run as in RunUntil", func(t *testing.T, e *Engine) {
			var log []string
			ticker(e, &log, "d", 10*ms)
			live(e, &log, "a", 50*ms)
			if e.RunUntilQuiet(25 * ms) {
				t.Fatal("quiet with a live event pending past the deadline")
			}
			want(t, log, "d@0s", "d@10ms", "d@20ms")
			if e.Now() != 25*ms || e.Pending() != 2 {
				t.Fatalf("now %v with %d pending, want 25ms and 2", e.Now(), e.Pending())
			}
		}},
		{"inline claims respect the deadline and yield to daemons", func(t *testing.T, e *Engine) {
			b := &batcher{e: e}
			b.add(10*ms, 1)
			b.add(20*ms, 2) // a daemon at 15ms sorts first: refused, re-armed
			b.add(30*ms, 3) // claimed inline from 2
			b.add(60*ms, 4) // past the deadline: refused
			e.ScheduleDaemon(15*ms, kindTestCall, func() { b.fired = append(b.fired, -1) })
			if e.RunUntilQuiet(50 * ms) {
				t.Fatal("quiet with a logical event pending past the deadline")
			}
			if fmt.Sprint(b.fired) != "[1 -1 2 3]" || e.Coalesced() != 1 || e.Now() != 50*ms {
				t.Fatalf("fired %v with %d coalesced at %v, want [1 -1 2 3], 1, 50ms", b.fired, e.Coalesced(), e.Now())
			}
			if !e.RunUntilQuiet(time.Second) || fmt.Sprint(b.fired) != "[1 -1 2 3 4]" {
				t.Fatalf("resumed: fired %v", b.fired)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { onHeap(t, tc.run) })
	}
}

// TestEventsByKindSumToProcessed pins the attribution counter: Reset
// flushes each kind's dispatches into the process totals, and they add
// up to the processed total.
func TestEventsByKindSumToProcessed(t *testing.T) {
	onHeap(t, func(t *testing.T, e *Engine) {
		p0, _ := TotalEvents()
		k0 := TotalEventsByKind()
		for i := 0; i < 5; i++ {
			e.Schedule(Time(i)*ms, func() {})
			e.ScheduleDaemon(Time(i)*ms, kindTestCall, func() {})
		}
		e.ScheduleEvent(time.Second, kindTestNop, nil).Cancel()
		e.RunUntilQuiet(time.Second)
		e.Reset()
		p1, _ := TotalEvents()
		k1 := TotalEventsByKind()
		var sum uint64
		for k := range k1 {
			sum += k1[k] - k0[k]
		}
		// The daemon at 4ms sorts after the last live event and never ran.
		if p1-p0 != 9 || sum != 9 || k1[kindClosure]-k0[kindClosure] != 5 || k1[kindTestCall]-k0[kindTestCall] != 4 {
			t.Fatalf("processed %d, by kind %d (closure %d, call %d); want 9, 9, 5, 4",
				p1-p0, sum, k1[kindClosure]-k0[kindClosure], k1[kindTestCall]-k0[kindTestCall])
		}
	})
}

// quietWorld drives one engine through a seed-determined schedule of live
// events (plain and batched through RunsNext), daemons and cancels. With
// daemons false the same schedule's daemons are ordinary events — the
// RunUntil reference RunUntilQuiet is compared against.
type quietWorld struct {
	e       *Engine
	daemons bool
	seed    int64
	nextID  int
	timers  []Timer
	log     []quietRec
	batch   []quietBatched
	bTimer  Timer
	// draining suppresses arming while drainBatch itself runs.
	draining bool
}

type quietRec struct {
	id     int
	at     Time
	daemon bool
}

type quietBatched struct {
	at Time
	tk Ticket
	id int
}

var kindQuietBatch EventKind

func init() {
	kindQuietBatch = RegisterKind("sim.test.quietBatch", func(a any) { a.(*quietWorld).drainBatch() })
}

// quietGap draws a delay: often zero (same-instant ties), mostly tens of
// milliseconds, sometimes over a second.
func quietGap(rng *rand.Rand) Time {
	switch rng.Intn(8) {
	case 0, 1:
		return 0
	case 2:
		return time.Second + Time(rng.Int63n(int64(time.Second)))
	default:
		return Time(rng.Int63n(int64(40 * ms)))
	}
}

func (w *quietWorld) id() int {
	w.nextID++
	w.timers = append(w.timers, Timer{})
	return w.nextID - 1
}

func (w *quietWorld) addLive(delay Time) {
	id := w.id()
	w.timers[id] = w.e.ScheduleEvent(delay, kindTestCall, func() { w.fireLive(id) })
}

func (w *quietWorld) addBatched(delay Time) {
	// Logical events of one multiplexed timer must be FIFO in time.
	at := w.e.Now() + delay
	if n := len(w.batch); n > 0 && at < w.batch[n-1].at {
		at = w.batch[n-1].at
	}
	w.batch = append(w.batch, quietBatched{at, w.e.ReserveTicket(), w.id()})
	if !w.draining && !w.bTimer.Active() {
		w.bTimer = w.e.AtTicket(w.batch[0].at, w.batch[0].tk, kindQuietBatch, w)
	}
}

// drainBatch is netsim.Link.drain in miniature: fire the head, claim
// successors inline while the engine agrees, re-arm on the first refusal.
func (w *quietWorld) drainBatch() {
	w.bTimer = Timer{}
	w.draining = true
	defer func() { w.draining = false }()
	for {
		h := w.batch[0]
		w.batch = w.batch[1:]
		w.fireLive(h.id) // may append to w.batch
		if len(w.batch) == 0 {
			return
		}
		if n := w.batch[0]; !w.e.RunsNext(n.at, n.tk) {
			w.bTimer = w.e.AtTicket(n.at, n.tk, kindQuietBatch, w)
			return
		}
	}
}

// addDaemon arms a self-re-arming background process with ticks left.
func (w *quietWorld) addDaemon(delay, period Time, ticks int) {
	id := w.id()
	fn := func() {
		w.log = append(w.log, quietRec{id, w.e.Now(), true})
		if ticks > 1 {
			w.addDaemon(period, period, ticks-1)
		}
	}
	if w.daemons {
		w.timers[id] = w.e.ScheduleDaemon(delay, kindTestCall, fn)
	} else {
		w.timers[id] = w.e.ScheduleEvent(delay, kindTestCall, fn)
	}
}

// fireLive is every live event's handler: what it does next depends only
// on the seed and its id, so both worlds behave alike for as long as
// their dispatch orders agree.
func (w *quietWorld) fireLive(id int) {
	w.log = append(w.log, quietRec{id, w.e.Now(), false})
	rng := rand.New(rand.NewSource(w.seed ^ int64(id)*0x9e3779b9))
	if w.nextID > 400 {
		return // let the schedule die out
	}
	for n := rng.Intn(3); n > 0; n-- {
		switch rng.Intn(6) {
		case 0:
			w.addDaemon(quietGap(rng), Time(1+rng.Int63n(int64(30*ms))), 1+rng.Intn(40))
		case 1, 2:
			w.addBatched(quietGap(rng))
		default:
			w.addLive(quietGap(rng))
		}
	}
	if rng.Intn(4) == 0 {
		w.timers[rng.Intn(w.nextID)].Cancel() // live, daemon, fired or batched (inert) alike
	}
}

func runQuietWorld(seed int64, daemons bool, deadline Time) (*quietWorld, bool) {
	w := &quietWorld{e: New(), daemons: daemons, seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 3; i++ {
		w.addDaemon(0, Time(1+rng.Int63n(int64(20*ms))), 200)
	}
	for i := 0; i < 6; i++ {
		w.addLive(quietGap(rng))
	}
	if daemons {
		return w, w.e.RunUntilQuiet(deadline)
	}
	w.e.RunUntil(deadline)
	return w, false
}

// TestQuietRunMatchesRunUntilOnLiveEvents is the property behind every
// byte-identity claim: over random schedules the quiet run dispatches the
// very sequence RunUntil does — live events and the daemons between
// them, same times, same order — and stops short by exactly the daemon
// dispatches that follow the reference's last live event.
func TestQuietRunMatchesRunUntilOnLiveEvents(t *testing.T) {
	quiets := map[bool]int{}
	for seed := int64(1); seed <= 60; seed++ {
		deadline := 2 * time.Second
		if seed%3 == 0 {
			deadline = 150 * ms // cut some schedules short
		}
		ref, _ := runQuietWorld(seed, false, deadline)
		got, quiet := runQuietWorld(seed, true, deadline)

		// Quiet: the reference up to its last live event. Cut off by
		// the deadline with live events still pending: all of it.
		wantLog := ref.log
		if quiet {
			for len(wantLog) > 0 && wantLog[len(wantLog)-1].daemon {
				wantLog = wantLog[:len(wantLog)-1]
			}
		}
		if len(wantLog) == 0 {
			t.Fatalf("seed %d: the reference fired no live event", seed)
		}
		trailing := len(ref.log) - len(wantLog)
		if fmt.Sprint(got.log) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d (quiet %v): dispatched\n%v\nwant the reference less its %d trailing daemon dispatches\n%v", seed, quiet, got.log, trailing, wantLog)
		}
		if ref.e.Processed()-got.e.Processed() != uint64(trailing) || ref.e.Coalesced() != got.e.Coalesced() {
			t.Fatalf("seed %d: processed %d vs %d, coalesced %d vs %d; want a gap of the %d trailing daemon dispatches and equal claims",
				seed, ref.e.Processed(), got.e.Processed(), ref.e.Coalesced(), got.e.Coalesced(), trailing)
		}
		quiets[quiet]++
		// Quiet exactly when no live event is left beyond the deadline.
		liveLeft := got.e.Pending() - got.e.daemons
		if quiet != (liveLeft == 0) {
			t.Fatalf("seed %d: quiet = %v with %d live events pending", seed, quiet, liveLeft)
		}
		if last := wantLog[len(wantLog)-1].at; quiet && got.e.Now() != last {
			t.Fatalf("seed %d: quiet run left the clock at %v, want the last live dispatch %v", seed, got.e.Now(), last)
		}
		if !quiet && got.e.Now() != deadline {
			t.Fatalf("seed %d: unquiet run left the clock at %v, want the deadline", seed, got.e.Now())
		}
	}
	if quiets[true] < 20 || quiets[false] < 20 {
		t.Fatalf("schedules ended quiet %d times and at the deadline %d times; the generator should produce plenty of both", quiets[true], quiets[false])
	}
}
