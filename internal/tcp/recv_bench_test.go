package tcp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkSubflowRecvInOrder measures the common case: every segment
// arrives exactly at the cumulative ACK point, so the reassembly
// structure stays empty and each arrival emits one ACK.
func BenchmarkSubflowRecvInOrder(b *testing.B) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{
		Name:       "bench",
		RateBps:    1e9,
		Delay:      time.Millisecond,
		QueueBytes: 1 << 20,
	})
	path.SetReverseReceiver(func(*netsim.Packet) {})
	r := NewSubflowRecv(path, benchSink{})
	const mss = 1400
	b.ReportAllocs()
	b.ResetTimer()
	// One packet reused across iterations (as the link layer does with
	// its ring slots), so the benchmark measures the receiver, not a
	// per-iteration literal allocation.
	pkt := netsim.Packet{Kind: netsim.Data, Size: mss + 60, PayloadLen: mss}
	for i := 0; i < b.N; i++ {
		r.OnPacket(&pkt)
		pkt.Seq += mss
		pkt.DSN += mss
		if i&1023 == 1023 {
			eng.Run() // drain the ACK-side link events
		}
	}
	eng.Run()
}

// BenchmarkSubflowRecvReorder measures reassembly under persistent
// reordering: segments arrive in windows of 16 delivered in a fixed
// pseudo-random permutation, so most arrivals are buffered out of order
// and each window ends with a burst of hole-filling cumulative
// advances — the access pattern that made the buffered map hot in the
// PR 3 profile.
func BenchmarkSubflowRecvReorder(b *testing.B) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{
		Name:       "bench",
		RateBps:    1e9,
		Delay:      time.Millisecond,
		QueueBytes: 1 << 20,
	})
	path.SetReverseReceiver(func(*netsim.Packet) {})
	r := NewSubflowRecv(path, benchSink{})
	const mss = 1400
	const window = 16
	// A fixed pseudo-random permutation keeps the arrival schedule
	// identical across runs and across implementation changes.
	perm := sim.NewRNG(0x5eed).Perm(window)
	b.ReportAllocs()
	b.ResetTimer()
	pkt := netsim.Packet{Kind: netsim.Data, Size: mss + 60, PayloadLen: mss}
	var seq int64
	for i := 0; i < b.N; i += window {
		for _, k := range perm {
			pkt.Seq = seq + int64(k)*mss
			pkt.DSN = pkt.Seq
			r.OnPacket(&pkt)
		}
		seq += window * mss
		if i&1023 == 1008 {
			eng.Run() // drain the ACK-side link events
		}
	}
	eng.Run()
}
