package tcp

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestSubflowSteadyStateAllocs pins the transport-layer half of the
// allocation-free core: with the segment pool, the inflight ring and the
// engine arena warm, a full send→deliver→ACK→window-update cycle
// allocates nothing per segment, at a pinned event count.
func TestSubflowSteadyStateAllocs(t *testing.T) {
	eng := sim.New()
	// A realistic bounded queue so drop-tail losses cap the congestion
	// window: pools and rings stop growing once the window stabilizes
	// (an unbounded queue would let Reno grow the working set forever).
	path := netsim.NewPath(eng, netsim.PathConfig{
		Name:       "allocs",
		RateBps:    50e6,
		Delay:      5 * time.Millisecond,
		QueueBytes: 64 * 1024,
	})
	conn := &benchConn{}
	s := NewSubflow(eng, Config{ConnID: 1, ID: 0, Name: "allocs"}, path, cc.NewReno(), conn)
	recv := NewSubflowRecv(path, benchSink{})
	path.SetForwardReceiver(recv.OnPacket)
	path.SetReverseReceiver(s.OnAck)
	s.SeedRTT(10 * time.Millisecond)

	const mss = 1400
	const batch = 256
	var dsn, goal int64
	conn.pump = func() {
		for s.CanSend() && dsn < goal {
			s.SendSegment(dsn, mss)
			dsn += mss
		}
	}
	cycle := func() {
		goal += batch * mss
		conn.pump()
		eng.Run()
	}
	// Warm until the window, pools and rings reach their loss-bounded
	// steady state.
	for i := 0; i < 10; i++ {
		cycle()
	}
	events0 := eng.Processed() + eng.Coalesced()
	const runs = 20
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("steady-state subflow transfer allocates %v per %d-segment batch, want 0", avg, batch)
	}
	// The event cost of those segments is exact too: 2.66 per segment in
	// this loop, which drains to idle every 256 segments under drop-tail
	// loss (BenchmarkSubflowTransfer's long lossless run reads 2.56). A
	// change that reintroduces a per-segment timer or ACK event moves it.
	// AllocsPerRun calls cycle once more than it measures.
	const wantEvents = 14284
	if events := eng.Processed() + eng.Coalesced() - events0; events != wantEvents {
		t.Fatalf("%d events for %d segments, want %d", events, (runs+1)*batch, wantEvents)
	}
	if s.InflightSegments() != 0 {
		t.Fatalf("%d segments still in flight", s.InflightSegments())
	}
}
