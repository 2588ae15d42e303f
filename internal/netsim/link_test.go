package netsim

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func mbps(m float64) float64 { return m * 1e6 }

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	eng := sim.New()
	var arrived []sim.Time
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(8), Delay: 10 * time.Millisecond}, func(p *Packet) {
		arrived = append(arrived, eng.Now())
	})
	// 1000 bytes at 8 Mbps = 1 ms serialization; +10 ms propagation.
	if !l.Send(&Packet{Size: 1000}) {
		t.Fatal("Send returned false")
	}
	eng.Run()
	if len(arrived) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(arrived))
	}
	want := 11 * time.Millisecond
	if arrived[0] != want {
		t.Fatalf("arrival at %v, want %v", arrived[0], want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng := sim.New()
	var arrived []sim.Time
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(8), Delay: 0}, func(p *Packet) {
		arrived = append(arrived, eng.Now())
	})
	for i := 0; i < 3; i++ {
		l.Send(&Packet{Size: 1000})
	}
	eng.Run()
	if len(arrived) != 3 {
		t.Fatalf("delivered %d, want 3", len(arrived))
	}
	for i, want := range []time.Duration{1, 2, 3} {
		if arrived[i] != want*time.Millisecond {
			t.Fatalf("packet %d arrived at %v, want %v ms", i, arrived[i], want)
		}
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	eng := sim.New()
	delivered := 0
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(1), Delay: 0, QueueBytes: 2500}, func(p *Packet) {
		delivered++
	})
	ok1 := l.Send(&Packet{Size: 1000})
	ok2 := l.Send(&Packet{Size: 1000})
	ok3 := l.Send(&Packet{Size: 1000}) // 3000 > 2500: dropped
	eng.Run()
	if !ok1 || !ok2 {
		t.Fatal("first two sends should be accepted")
	}
	if ok3 {
		t.Fatal("third send should be dropped")
	}
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
	st := l.Stats()
	if st.Dropped != 1 || st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("stats = %+v, want 1 drop, 2 sent, 2 delivered", st)
	}
}

func TestLinkQueueDrainsOverTime(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(8), Delay: 0, QueueBytes: 10000}, func(p *Packet) {})
	l.Send(&Packet{Size: 1000})
	l.Send(&Packet{Size: 1000})
	if l.queuedBytes() != 2000 {
		t.Fatalf("queued = %d, want 2000", l.queuedBytes())
	}
	eng.RunUntil(1500 * time.Microsecond) // first packet serialized at 1 ms
	if l.queuedBytes() != 1000 {
		t.Fatalf("queued = %d after first departure, want 1000", l.queuedBytes())
	}
	eng.Run()
	if l.queuedBytes() != 0 {
		t.Fatalf("queued = %d at end, want 0", l.queuedBytes())
	}
}

func TestLinkRateChangeAffectsLaterPackets(t *testing.T) {
	eng := sim.New()
	var arrived []sim.Time
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(8), Delay: 0}, func(p *Packet) {
		arrived = append(arrived, eng.Now())
	})
	l.Send(&Packet{Size: 1000}) // 1 ms at 8 Mbps
	eng.Run()
	l.setRateBps(mbps(4))
	l.Send(&Packet{Size: 1000}) // 2 ms at 4 Mbps
	eng.Run()
	if arrived[0] != time.Millisecond {
		t.Fatalf("first at %v, want 1ms", arrived[0])
	}
	if arrived[1] != 3*time.Millisecond {
		t.Fatalf("second at %v, want 3ms", arrived[1])
	}
}

func TestLinkRandomLoss(t *testing.T) {
	eng := sim.New()
	delivered := 0
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(100), Delay: 0, LossRate: 0.5, Seed: 1, QueueBytes: 1 << 30}, func(p *Packet) {
		delivered++
	})
	const n = 2000
	for i := 0; i < n; i++ {
		l.Send(&Packet{Size: 100})
	}
	eng.Run()
	if delivered < n*4/10 || delivered > n*6/10 {
		t.Fatalf("delivered %d of %d with 50%% loss, want ~half", delivered, n)
	}
	st := l.Stats()
	if st.Lost+int64(delivered) != n {
		t.Fatalf("lost(%d)+delivered(%d) != sent(%d)", st.Lost, delivered, n)
	}
}

// TestLinkObserverRecordsPacketOps drives two links on one observed
// engine, as the links of a traced cell are: both record into the
// engine's packet ring, a lossless link takes two sends and one
// drop-tail drop, a lossy one loses packets on delivery. Per link, the
// recorded ops must match LinkStats.
func TestLinkObserverRecordsPacketOps(t *testing.T) {
	eng := sim.New()
	cell := obs.NewCellRecorder("link-test", 0)
	eng.Observe(cell)
	rec := cell.Packets
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: 1e6, Delay: time.Millisecond, QueueBytes: 2500}, func(*Packet) {})
	lossy := NewLink(eng, LinkConfig{Name: "lossy", RateBps: 1e6, LossRate: 0.5, Seed: 1, QueueBytes: 1 << 20}, func(*Packet) {})
	l.Send(&Packet{Kind: Data, Size: 1000, Seq: 0})
	l.Send(&Packet{Kind: Data, Size: 1000, Seq: 940})
	l.Send(&Packet{Kind: Data, Size: 1000, Seq: 1880}) // dropped: 3000 B > 2500 B
	for i := 0; i < 10; i++ {
		lossy.Send(&Packet{Kind: Data, Size: 1000})
	}
	eng.Run()

	ops := map[string]map[obs.PacketOp]int64{"t": {}, "lossy": {}}
	for _, ev := range rec.Events() {
		ops[ev.Link][ev.Op]++
	}
	got := ops["t"]
	if got[obs.PktEnqueue] != 2 || got[obs.PktDeliver] != 2 || got[obs.PktDrop] != 1 || got[obs.PktLoss] != 0 {
		t.Fatalf("lossless link ops = %v, want enqueue 2, deliver 2, drop 1, loss 0", got)
	}
	if ops["lossy"][obs.PktLoss] < 1 {
		t.Fatalf("lossy link ops = %v, want at least one loss", ops["lossy"])
	}
	for _, link := range []*Link{l, lossy} {
		st, got := link.Stats(), ops[link.name]
		if got[obs.PktEnqueue] != st.Sent || got[obs.PktDeliver] != st.Delivered ||
			got[obs.PktDrop] != st.Dropped || got[obs.PktLoss] != st.Lost {
			t.Fatalf("%s: recorded ops %v disagree with stats %+v", link.name, got, st)
		}
	}
}

func TestLinkPanicsOnBadConfig(t *testing.T) {
	eng := sim.New()
	assertPanics(t, "zero rate", func() { NewLink(eng, LinkConfig{RateBps: 0}, nil) })
	l := NewLink(eng, LinkConfig{RateBps: 1e6}, func(*Packet) {})
	assertPanics(t, "zero size", func() { l.Send(&Packet{Size: 0}) })
	assertPanics(t, "negative rate set", func() { l.setRateBps(-1) })
	l2 := NewLink(eng, LinkConfig{RateBps: 1e6}, nil)
	assertPanics(t, "nil receiver", func() { l2.Send(&Packet{Size: 10}) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: did not panic", name)
		}
	}()
	fn()
}

func TestLinkConservation(t *testing.T) {
	// Accepted packets are either delivered or randomly lost; never
	// duplicated, never stuck.
	eng := sim.New()
	delivered := 0
	l := NewLink(eng, LinkConfig{Name: "t", RateBps: mbps(10), Delay: time.Millisecond, QueueBytes: 20000, LossRate: 0.1, Seed: 3}, func(p *Packet) {
		delivered++
	})
	accepted := 0
	for i := 0; i < 500; i++ {
		if l.Send(&Packet{Size: 1200}) {
			accepted++
		}
		// Space sends so the queue partially drains.
		eng.RunUntil(eng.Now() + 500*time.Microsecond)
	}
	eng.Run()
	st := l.Stats()
	if int64(delivered)+st.Lost != int64(accepted) {
		t.Fatalf("delivered(%d)+lost(%d) != accepted(%d)", delivered, st.Lost, accepted)
	}
	if l.queuedBytes() != 0 {
		t.Fatalf("queue not drained: %d bytes", l.queuedBytes())
	}
}

func TestPathWiring(t *testing.T) {
	eng := sim.New()
	p := NewPath(eng, PathConfig{Name: "wifi", RateBps: mbps(8), Delay: 5 * time.Millisecond})
	var fwdGot, revGot bool
	p.SetForwardReceiver(func(*Packet) { fwdGot = true })
	p.SetReverseReceiver(func(*Packet) { revGot = true })
	p.Forward().Send(&Packet{Size: 100})
	p.Reverse().Send(&Packet{Size: 100})
	eng.Run()
	if !fwdGot || !revGot {
		t.Fatalf("fwd=%v rev=%v, want both true", fwdGot, revGot)
	}
	if p.BaseRTT() != 10*time.Millisecond {
		t.Fatalf("BaseRTT = %v, want 10ms", p.BaseRTT())
	}
	if p.Name() != "wifi" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestPathReverseRateDefaultsToForward(t *testing.T) {
	eng := sim.New()
	p := NewPath(eng, PathConfig{Name: "x", RateBps: mbps(2)})
	if p.Reverse().RateBps() != mbps(2) {
		t.Fatalf("reverse rate = %v, want %v", p.Reverse().RateBps(), mbps(2))
	}
}

func TestPacketKindString(t *testing.T) {
	if Data.String() != "data" || Ack.String() != "ack" {
		t.Fatal("PacketKind.String mismatch")
	}
	if PacketKind(9).String() != "unknown" {
		t.Fatal("unknown kind should stringify to unknown")
	}
}

// TestLinkResetMatchesFreshLink drives identical traffic through a
// reused (engine-reset + link-reset) link and a freshly constructed
// one, requiring identical delivery times, loss draws and counters —
// the equivalence the pooled network relies on.
func TestLinkResetMatchesFreshLink(t *testing.T) {
	cfg := LinkConfig{Name: "t", RateBps: mbps(2), Delay: 5 * time.Millisecond, QueueBytes: 4000, LossRate: 0.2, Seed: 9}
	drive := func(eng *sim.Engine, l *Link) ([]sim.Time, LinkStats) {
		var arrived []sim.Time
		l.SetReceiver(func(p *Packet) { arrived = append(arrived, eng.Now()) })
		for i := 0; i < 50; i++ {
			l.Send(&Packet{Size: 1000})
			eng.RunUntil(eng.Now() + 2*time.Millisecond)
		}
		eng.Run()
		return arrived, l.Stats()
	}

	engA := sim.New()
	lA := NewLink(engA, LinkConfig{Name: "warmup", RateBps: mbps(50), Delay: time.Millisecond, LossRate: 0.5, Seed: 1}, nil)
	drive(engA, lA) // pollute: different config, different loss stream
	engA.Reset()
	lA.reset(cfg, nil)
	gotT, gotS := drive(engA, lA)

	engB := sim.New()
	wantT, wantS := drive(engB, NewLink(engB, cfg, nil))

	if gotS != wantS {
		t.Fatalf("stats after reset = %+v, fresh = %+v", gotS, wantS)
	}
	if len(gotT) != len(wantT) {
		t.Fatalf("delivered %d packets after reset, fresh delivered %d", len(gotT), len(wantT))
	}
	for i := range gotT {
		if gotT[i] != wantT[i] {
			t.Fatalf("arrival %d at %v after reset, fresh at %v", i, gotT[i], wantT[i])
		}
	}
}
