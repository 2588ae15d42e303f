package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// The property under test: the batched drain (one multi-delivery event
// claiming successors via sim.RunsNext, departures accounted lazily
// against CurrentTicket) is observationally identical to the reference
// scheme where every departure and every arrival is its own queue event
// under the same reserved tickets. The reference below reimplements the
// link's serializer math independently and schedules eagerly; both are
// driven by identical randomized schedules of same-instant packet
// bursts, mid-flight rate and delay changes (the reorder clamp), random
// loss, and queue-occupancy probes, and must agree on every delivery
// (identity and timestamp), every drop decision, every occupancy
// reading, and the final counters.

// refFlight is one in-flight packet of the reference link.
type refFlight struct {
	pkt       Packet
	departure sim.Time
	arrival   sim.Time
}

// refLink schedules one event per serializer departure and one per
// arrival, exactly like the pre-batching link.
type refLink struct {
	eng         *sim.Engine
	rate        float64
	delay       time.Duration
	queueLimit  int
	queued      int
	busyUntil   sim.Time
	lastArrival sim.Time
	lossRate    float64
	rng         *sim.RNG
	dst         Receiver

	q []refFlight

	sent, delivered, dropped, lost int64
}

// refEv points one scheduled sub-event at its in-flight entry.
type refEv struct {
	l   *refLink
	idx int
}

var kindRefDepart, kindRefArrive sim.EventKind

func init() {
	kindRefDepart = sim.RegisterKind("netsim.test.refDepart", func(a any) {
		ev := a.(*refEv)
		ev.l.queued -= ev.l.q[ev.idx].pkt.Size
	})
	kindRefArrive = sim.RegisterKind("netsim.test.refArrive", func(a any) {
		ev := a.(*refEv)
		l := ev.l
		f := &l.q[ev.idx]
		if l.lossRate > 0 && l.rng.Float64() < l.lossRate {
			l.lost++
			return
		}
		l.delivered++
		l.dst(&f.pkt)
	})
}

func newRefLink(eng *sim.Engine, cfg LinkConfig, dst Receiver) *refLink {
	l := &refLink{
		eng:        eng,
		rate:       cfg.RateBps,
		delay:      cfg.Delay,
		queueLimit: cfg.QueueBytes,
		lossRate:   cfg.LossRate,
		dst:        dst,
	}
	if l.lossRate > 0 {
		// Mirrors the production link's loss-stream seeding so both draw
		// identical deviates in identical delivery order.
		l.rng = sim.NewRNG(cfg.Seed + 0x9d5f)
	}
	return l
}

func (l *refLink) SetRateBps(rate float64) { l.rate = rate }

func (l *refLink) SetDelay(d time.Duration) { l.delay = d }

func (l *refLink) Send(p *Packet) bool {
	if l.queued+p.Size > l.queueLimit {
		l.dropped++
		return false
	}
	l.sent++
	l.queued += p.Size

	now := l.eng.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	txTime := time.Duration(float64(p.Size*8) / l.rate * float64(time.Second))
	if txTime <= 0 {
		txTime = time.Nanosecond
	}
	l.busyUntil = start + txTime
	departure := l.busyUntil
	arrival := departure + l.delay
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival

	depTk := l.eng.ReserveTicket()
	arrTk := l.eng.ReserveTicket()
	idx := len(l.q)
	l.q = append(l.q, refFlight{pkt: *p, departure: departure, arrival: arrival})
	l.eng.AtTicket(departure, depTk, kindRefDepart, &refEv{l: l, idx: idx})
	l.eng.AtTicket(arrival, arrTk, kindRefArrive, &refEv{l: l, idx: idx})
	return true
}

// propAction is one scripted workload step. The same precomputed script
// drives both links so every timestamp, burst and parameter change —
// and therefore every engine ticket — lines up.
type propAction struct {
	at    sim.Time
	kind  int // 0 send, 1 setRate, 2 setDelay, 3 probe
	id    int64
	size  int
	rate  float64
	delay time.Duration
}

func propScript(seed uint64) []propAction {
	rng := sim.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	var acts []propAction
	var id int64
	at := sim.Time(0)
	for i := 0; i < 400; i++ {
		// A coarse grid keeps many actions landing at the same instant,
		// exercising same-timestamp tie-breaks and occupancy reads.
		at += sim.Time(rng.Intn(5)) * 100 * time.Microsecond
		switch r := rng.Intn(10); {
		case r < 6: // burst of back-to-back sends
			n := 1 + rng.Intn(4)
			for j := 0; j < n; j++ {
				id++
				acts = append(acts, propAction{at: at, kind: 0, id: id, size: 200 + rng.Intn(1300)})
			}
		case r < 7:
			acts = append(acts, propAction{at: at, kind: 1, rate: float64(1+rng.Intn(20)) * 1e5})
		case r < 8:
			// Shrinking the delay mid-flight triggers the FIFO reorder
			// clamp (later packets must not overtake earlier ones).
			acts = append(acts, propAction{at: at, kind: 2, delay: time.Duration(rng.Intn(20)) * time.Millisecond})
		default:
			acts = append(acts, propAction{at: at, kind: 3})
		}
	}
	return acts
}

// linkUnderTest abstracts the two implementations for the driver.
type linkUnderTest interface {
	Send(p *Packet) bool
}

// propDriver replays the script against one link, logging everything
// observable.
type propDriver struct {
	eng     *sim.Engine
	link    linkUnderTest
	rater   interface{ SetRateBps(float64) }
	delayer interface{ SetDelay(time.Duration) }
	prober  func() int
	acts    []propAction
	next    int
	log     []string
}

var kindPropStep sim.EventKind

func init() {
	kindPropStep = sim.RegisterKind("netsim.test.propStep", func(a any) { a.(*propDriver).step() })
}

// step executes every scripted action due now, then arms the next batch.
// One driver event per distinct timestamp in both runs keeps the ticket
// streams aligned.
func (d *propDriver) step() {
	now := d.eng.Now()
	for d.next < len(d.acts) && d.acts[d.next].at == now {
		a := d.acts[d.next]
		d.next++
		switch a.kind {
		case 0:
			p := Packet{Kind: Data, Seq: a.id, Size: a.size}
			ok := d.link.Send(&p)
			d.log = append(d.log, fmt.Sprintf("send %d at %v -> %v", a.id, now, ok))
		case 1:
			d.rater.SetRateBps(a.rate)
		case 2:
			d.delayer.SetDelay(a.delay)
		case 3:
			d.log = append(d.log, fmt.Sprintf("probe at %v = %d", now, d.prober()))
		}
	}
	if d.next < len(d.acts) {
		d.eng.AtEvent(d.acts[d.next].at, kindPropStep, d)
	}
}

func runPropSchedule(t *testing.T, seed uint64, useRef bool) (log []string, sent, delivered, dropped, lost int64) {
	t.Helper()
	eng := sim.New()
	cfg := LinkConfig{Name: "prop", RateBps: 1e6, Delay: 5 * time.Millisecond, QueueBytes: 8 * 1024, Seed: seed}
	if seed%2 == 0 {
		cfg.LossRate = 0.05
	}
	d := &propDriver{eng: eng, acts: propScript(seed)}
	record := func(p *Packet) {
		d.log = append(d.log, fmt.Sprintf("deliver %d at %v", p.Seq, eng.Now()))
	}
	if useRef {
		l := newRefLink(eng, cfg, record)
		d.link, d.rater, d.delayer = l, l, l
		d.prober = func() int { return l.queued }
		d.eng = eng
		if len(d.acts) > 0 {
			eng.AtEvent(d.acts[0].at, kindPropStep, d)
		}
		eng.Run()
		return d.log, l.sent, l.delivered, l.dropped, l.lost
	}
	l := NewLink(eng, cfg, record)
	d.link, d.rater, d.delayer = l, l, l
	d.prober = l.QueuedBytes
	if len(d.acts) > 0 {
		eng.AtEvent(d.acts[0].at, kindPropStep, d)
	}
	eng.Run()
	st := l.Stats()
	return d.log, st.Sent, st.Delivered, st.Dropped, st.Lost
}

func TestLinkBatchingMatchesUnbatchedReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			gotLog, gs, gd, gdr, gl := runPropSchedule(t, seed, false)
			wantLog, ws, wd, wdr, wl := runPropSchedule(t, seed, true)
			if len(gotLog) != len(wantLog) {
				t.Fatalf("log length: batched %d, reference %d", len(gotLog), len(wantLog))
			}
			for i := range gotLog {
				if gotLog[i] != wantLog[i] {
					t.Fatalf("log[%d]:\nbatched:   %s\nreference: %s", i, gotLog[i], wantLog[i])
				}
			}
			if gs != ws || gd != wd || gdr != wdr || gl != wl {
				t.Fatalf("counters: batched sent=%d delivered=%d dropped=%d lost=%d, reference sent=%d delivered=%d dropped=%d lost=%d",
					gs, gd, gdr, gl, ws, wd, wdr, wl)
			}
		})
	}
}
