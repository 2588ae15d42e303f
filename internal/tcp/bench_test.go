package tcp

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// benchSink is a minimal connection-level receiver: it acknowledges
// everything and advertises an unbounded window.
type benchSink struct{}

func (benchSink) OnData(p *netsim.Packet) (int64, int64) {
	return p.DSN + int64(p.PayloadLen), 1 << 40
}

// benchConn refills the send window from the ACK upcall.
type benchConn struct{ pump func() }

func (c *benchConn) SubflowAcked(*Subflow, int64, int64) { c.pump() }

// BenchmarkSubflowTransfer measures the steady-state per-segment cost of
// the full subflow loop: SendSegment → pacing → link → receiver → ACK →
// window bookkeeping → next segment.
func BenchmarkSubflowTransfer(b *testing.B) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{
		Name:       "bench",
		RateBps:    50e6,
		Delay:      5 * time.Millisecond,
		QueueBytes: 1 << 20,
	})
	conn := &benchConn{}
	s := NewSubflow(eng, Config{ConnID: 1, ID: 0, Name: "bench"}, path, cc.NewReno(), conn)
	recv := NewSubflowRecv(path, benchSink{})
	path.SetForwardReceiver(recv.OnPacket)
	path.SetReverseReceiver(s.OnAck)
	s.SeedRTT(10 * time.Millisecond)

	const mss = 1400
	var dsn int64
	total := int64(b.N) * mss
	conn.pump = func() {
		for s.CanSend() && dsn < total {
			s.SendSegment(dsn, mss)
			dsn += mss
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	conn.pump()
	eng.Run()
	if s.InflightSegments() != 0 {
		b.Fatalf("%d segments still in flight", s.InflightSegments())
	}
	b.ReportMetric(float64(eng.Processed()+eng.Coalesced())/float64(b.N), "events/op")
}
