package mptcp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkReceiverInOrder measures the common case of data-level
// reassembly: every packet arrives at the in-order delivery point.
func BenchmarkReceiverInOrder(b *testing.B) {
	eng := sim.New()
	r := newReceiver(eng, 1<<30)
	const mss = 1400
	b.ReportAllocs()
	b.ResetTimer()
	// One packet reused across iterations (as the link layer does with
	// its ring slots), so the benchmark measures the receiver, not a
	// per-iteration literal allocation.
	pkt := netsim.Packet{Kind: netsim.Data, PayloadLen: mss}
	for i := 0; i < b.N; i++ {
		pkt.SubflowID = i & 1
		r.OnData(&pkt)
		pkt.DSN += mss
		if i&(1<<16-1) == 1<<16-1 {
			b.StopTimer()
			r.oooDelays = nil // bound the telemetry slice outside the timer
			b.StartTimer()
		}
	}
}

// BenchmarkReceiverReorder measures DSN reassembly under persistent
// cross-path reordering: packets arrive in windows of 16 delivered in
// a fixed pseudo-random permutation, alternating subflows — the access
// pattern that made Receiver.OnData's buffered map and per-subflow
// maps hot in the PR 3 profile.
func BenchmarkReceiverReorder(b *testing.B) {
	eng := sim.New()
	r := newReceiver(eng, 1<<30)
	const mss = 1400
	const window = 16
	perm := sim.NewRNG(0x5eed).Perm(window)
	b.ReportAllocs()
	b.ResetTimer()
	pkt := netsim.Packet{Kind: netsim.Data, PayloadLen: mss}
	var dsn int64
	for i := 0; i < b.N; i += window {
		for _, k := range perm {
			pkt.SubflowID = k & 1
			pkt.DSN = dsn + int64(k)*mss
			r.OnData(&pkt)
		}
		dsn += window * mss
		if i&(1<<16-1) == 1<<16-window {
			b.StopTimer()
			r.oooDelays = nil // bound the telemetry slice outside the timer
			b.StartTimer()
		}
	}
}
