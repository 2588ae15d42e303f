package tcp

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// delackHarness builds a subflow with delayed ACKs enabled at the
// receiver.
func delackHarness(t *testing.T, total int64) *harness {
	t.Helper()
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 8e6, Delay: 10 * time.Millisecond, QueueBytes: 128 << 10},
		Config{Name: "p"}, total)
	h.rx.DelayedAcks = true
	return h
}

func TestDelayedAcksTransferStillCompletes(t *testing.T) {
	h := delackHarness(t, 1_000_000)
	h.pmp.fill()
	h.eng.Run()
	if h.rx.Expected() != 1_000_000 {
		t.Fatalf("received %d, want 1000000", h.rx.Expected())
	}
}

func TestDelayedAcksReduceAckCount(t *testing.T) {
	run := func(delayed bool) int64 {
		h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 8e6, Delay: 10 * time.Millisecond, QueueBytes: 128 << 10},
			Config{Name: "p"}, 2_000_000)
		h.rx.DelayedAcks = delayed
		h.pmp.fill()
		h.eng.Run()
		if h.rx.Expected() != 2_000_000 {
			t.Fatal("incomplete transfer")
		}
		return h.rx.AcksSent()
	}
	plain := run(false)
	delayed := run(true)
	if delayed >= plain {
		t.Fatalf("delayed acks sent %d >= plain %d", delayed, plain)
	}
	// RFC 1122 every-other-segment coalescing: roughly half the ACKs.
	if float64(delayed) > float64(plain)*0.75 {
		t.Fatalf("coalescing too weak: %d vs %d", delayed, plain)
	}
}

func TestDelayedAckTimerFliesSolo(t *testing.T) {
	// A single segment with no follow-up must still be acknowledged
	// (after the 40 ms delayed-ack timer).
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 8e6, Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
	var acks []netsim.Packet
	rx := NewSubflowRecv(eng, path, &bigWindowSink{})
	rx.DelayedAcks = true
	path.SetForwardReceiver(rx.OnPacket)
	path.SetReverseReceiver(func(p *netsim.Packet) { acks = append(acks, *p) })
	rx.OnPacket(&netsim.Packet{Kind: netsim.Data, Size: 1460, Seq: 0, DSN: 0, PayloadLen: 1400})
	eng.Run()
	if len(acks) != 1 {
		t.Fatalf("acks = %d, want 1 (timer-driven)", len(acks))
	}
	if acks[0].AckSeq != 1400 {
		t.Fatalf("ack seq = %d, want 1400", acks[0].AckSeq)
	}
	if rx.AcksDelayed() != 1 {
		t.Fatalf("AcksDelayed = %d, want 1", rx.AcksDelayed())
	}
}

func TestDelayedAcksImmediateOnOutOfOrder(t *testing.T) {
	// RFC 5681: out-of-order arrivals must be acknowledged immediately so
	// the sender's dup-ACK machinery works.
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 1e9})
	var acks []netsim.Packet
	rx := NewSubflowRecv(eng, path, &bigWindowSink{})
	rx.DelayedAcks = true
	path.SetForwardReceiver(rx.OnPacket)
	path.SetReverseReceiver(func(p *netsim.Packet) { acks = append(acks, *p) })
	// Hole at 0: seq 1400 arrives first.
	rx.OnPacket(&netsim.Packet{Kind: netsim.Data, Size: 1460, Seq: 1400, DSN: 1400, PayloadLen: 1400})
	if len(acks) != 0 {
		eng.Step()
	}
	eng.RunUntil(time.Millisecond) // far below the 40 ms delack timer
	if len(acks) != 1 {
		t.Fatalf("OOO arrival not acked immediately: %d acks", len(acks))
	}
	if !acks[0].SackHole {
		t.Fatal("OOO ack should signal the hole")
	}
}

func TestDelayedAcksLossRecoveryIntact(t *testing.T) {
	// Loss recovery must still work end-to-end with coalesced ACKs.
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 2e6, Delay: 20 * time.Millisecond, QueueBytes: 20_000},
		Config{Name: "p"}, 1_500_000)
	h.rx.DelayedAcks = true
	h.pmp.fill()
	h.eng.Run()
	if h.rx.Expected() != 1_500_000 {
		t.Fatalf("received %d, want 1500000", h.rx.Expected())
	}
	if h.sf.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions on the lossy path")
	}
}

var _ = cc.NewReno // keep import used if harness changes
