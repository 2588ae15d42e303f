package tcp

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// bigWindowSink is a MetaSink that never limits the sender.
type bigWindowSink struct{ dataAck int64 }

func (m *bigWindowSink) OnData(p *netsim.Packet) (int64, int64) {
	if end := p.DSN + int64(p.PayloadLen); end > m.dataAck {
		m.dataAck = end
	}
	return m.dataAck, 1 << 40
}

// pump drives a subflow like a single-subflow connection would: it pushes
// segments whenever the window opens until total bytes are sent.
type pump struct {
	sf      *Subflow
	total   int64
	sentDSN int64
}

func (p *pump) SubflowAcked(s *Subflow, dataAck, window int64) { p.fill() }

func (p *pump) fill() {
	p.sf.PrepareSend()
	for p.sentDSN < p.total && p.sf.CanSend() {
		l := int64(MSS)
		if p.total-p.sentDSN < l {
			l = p.total - p.sentDSN
		}
		p.sf.SendSegment(p.sentDSN, int(l))
		p.sentDSN += l
	}
}

// harness bundles one subflow + receiver over a fresh path.
type harness struct {
	eng  *sim.Engine
	path *netsim.Path
	sf   *Subflow
	rx   *SubflowRecv
	pmp  *pump
}

func newHarness(t *testing.T, pathCfg netsim.PathConfig, sfCfg Config, total int64) *harness {
	t.Helper()
	eng := sim.New()
	path := netsim.NewPath(eng, pathCfg)
	h := &harness{eng: eng, path: path}
	h.pmp = &pump{total: total}
	h.sf = NewSubflow(eng, sfCfg, path, cc.NewReno(), h.pmp)
	h.pmp.sf = h.sf
	h.rx = NewSubflowRecv(path, &bigWindowSink{})
	path.SetForwardReceiver(h.rx.OnPacket)
	path.SetReverseReceiver(h.sf.OnAck)
	return h
}

func TestTransferCompletes(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 8e6, Delay: 10 * time.Millisecond, QueueBytes: 128 << 10},
		Config{Name: "p"}, 1_000_000)
	h.pmp.fill()
	h.eng.Run()
	if h.rx.expected != 1_000_000 {
		t.Fatalf("receiver got %d bytes, want 1000000", h.rx.expected)
	}
	if h.sf.InflightSegments() != 0 || h.sf.InflightBytes() != 0 {
		t.Fatalf("inflight not drained: %d segs %d bytes", h.sf.InflightSegments(), h.sf.InflightBytes())
	}
	// Per-packet ACKing: one ACK per arriving data segment, and on this
	// loss-free path every segment sent arrives.
	if st := h.sf.Stats(); st.Retransmits != 0 || h.rx.acksSent != st.SegmentsSent {
		t.Fatalf("%d ACKs for %d segments sent (%d retransmitted), want one per segment", h.rx.acksSent, st.SegmentsSent, st.Retransmits)
	}
}

func TestSlowStartDoublesWindow(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 100e6, Delay: 50 * time.Millisecond, QueueBytes: 4 << 20},
		Config{Name: "p"}, 10_000_000)
	h.pmp.fill()
	// After ~1 RTT the initial 10 segments are acked: cwnd ≈ 20.
	h.eng.RunUntil(140 * time.Millisecond)
	if w := h.sf.CwndSegments(); w < 18 || w > 25 {
		t.Fatalf("cwnd = %v after one RTT of slow start, want ~20", w)
	}
	h.eng.RunUntil(240 * time.Millisecond)
	if w := h.sf.CwndSegments(); w < 35 {
		t.Fatalf("cwnd = %v after two RTTs, want ~40", w)
	}
}

func TestRTTMeasuredMatchesPath(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 50e6, Delay: 30 * time.Millisecond, QueueBytes: 4 << 20},
		Config{Name: "p"}, 500_000)
	h.pmp.fill()
	h.eng.Run()
	srtt := h.sf.Srtt()
	// Base RTT 60 ms plus small serialization/queueing.
	if srtt < 60*time.Millisecond || srtt > 90*time.Millisecond {
		t.Fatalf("srtt = %v, want 60-90ms", srtt)
	}
}

func TestLossRecoveryViaDupAcks(t *testing.T) {
	// Small queue on a slow link forces drop-tail losses; the transfer
	// must still complete, using fast retransmits.
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 2e6, Delay: 20 * time.Millisecond, QueueBytes: 20_000},
		Config{Name: "p"}, 2_000_000)
	h.pmp.fill()
	h.eng.Run()
	if h.rx.expected != 2_000_000 {
		t.Fatalf("receiver got %d bytes, want 2000000", h.rx.expected)
	}
	st := h.sf.Stats()
	if st.Retransmits == 0 {
		t.Fatal("expected retransmissions on a lossy path")
	}
}

func TestRandomLossRecovery(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 10e6, Delay: 15 * time.Millisecond, QueueBytes: 256 << 10, LossRate: 0.02, Seed: 7},
		Config{Name: "p"}, 3_000_000)
	h.pmp.fill()
	h.eng.Run()
	if h.rx.expected != 3_000_000 {
		t.Fatalf("receiver got %d bytes, want 3000000", h.rx.expected)
	}
}

func TestRTORecoversFromTotalBlackout(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 8e6, Delay: 10 * time.Millisecond, QueueBytes: 128 << 10},
		Config{Name: "p"}, 400_000)
	// Black out the path before anything is sent: all packets lost.
	h.path.Forward().SetLossRate(1.0)
	h.pmp.fill()
	h.eng.RunUntil(3 * time.Second)
	if h.rx.expected != 0 {
		t.Fatal("nothing should arrive during blackout")
	}
	// Restore and let RTO-driven retransmission finish the transfer.
	h.path.Forward().SetLossRate(0)
	h.eng.Run()
	if h.rx.expected != 400_000 {
		t.Fatalf("receiver got %d bytes after blackout, want 400000", h.rx.expected)
	}
	st := h.sf.Stats()
	if st.Timeouts == 0 {
		t.Fatal("expected RTO events")
	}
	if st.IWResets == 0 {
		t.Fatal("RTO should count as an IW reset")
	}
}

func TestIdleRestartResetsCwnd(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 50e6, Delay: 20 * time.Millisecond, QueueBytes: 4 << 20},
		Config{Name: "p", IdleRestart: true}, 2_000_000)
	h.pmp.fill()
	h.eng.Run()
	grown := h.sf.CwndSegments()
	if grown < 20 {
		t.Fatalf("cwnd = %v after transfer, want growth", grown)
	}
	// Idle for far longer than the RTO, then prepare a new send.
	h.eng.RunUntil(h.eng.Now() + 10*time.Second)
	h.sf.PrepareSend()
	if w := h.sf.CwndSegments(); w != 10 {
		t.Fatalf("cwnd = %v after idle restart, want initial 10", w)
	}
	if h.sf.Stats().IdleResets != 1 {
		t.Fatalf("IdleResets = %d, want 1", h.sf.Stats().IdleResets)
	}
}

func TestIdleRestartDisabled(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 50e6, Delay: 20 * time.Millisecond, QueueBytes: 4 << 20},
		Config{Name: "p", IdleRestart: false}, 2_000_000)
	h.pmp.fill()
	h.eng.Run()
	grown := h.sf.CwndSegments()
	h.eng.RunUntil(h.eng.Now() + 10*time.Second)
	h.sf.PrepareSend()
	if w := h.sf.CwndSegments(); w != grown {
		t.Fatalf("cwnd = %v after idle with restart disabled, want unchanged %v", w, grown)
	}
	if h.sf.Stats().IdleResets != 0 {
		t.Fatal("IdleResets should be 0 when disabled")
	}
}

func TestIdleRestartAppliedOncePerIdlePeriod(t *testing.T) {
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 50e6, Delay: 20 * time.Millisecond, QueueBytes: 4 << 20},
		Config{Name: "p", IdleRestart: true}, 1_000_000)
	h.pmp.fill()
	h.eng.Run()
	h.eng.RunUntil(h.eng.Now() + 5*time.Second)
	h.sf.PrepareSend()
	h.sf.PrepareSend()
	h.sf.PrepareSend()
	if h.sf.Stats().IdleResets != 1 {
		t.Fatalf("IdleResets = %d after repeated PrepareSend, want 1", h.sf.Stats().IdleResets)
	}
}

func TestAvailableCwndArithmetic(t *testing.T) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 1e6, Delay: time.Second, QueueBytes: 1 << 20})
	sf := NewSubflow(eng, Config{Name: "p"}, path, cc.NewReno(), nil)
	rx := NewSubflowRecv(path, &bigWindowSink{})
	path.SetForwardReceiver(rx.OnPacket)
	path.SetReverseReceiver(sf.OnAck)
	if got := sf.AvailableCwndSegments(); got != 10 {
		t.Fatalf("available = %d, want 10 (IW)", got)
	}
	for i := 0; i < 10; i++ {
		if !sf.CanSend() {
			t.Fatalf("CanSend false at segment %d", i)
		}
		sf.SendSegment(int64(i*1400), 1400)
	}
	if sf.CanSend() {
		t.Fatal("CanSend true with a full window")
	}
	if sf.InflightSegments() != 10 || sf.InflightBytes() != 14000 {
		t.Fatalf("inflight = %d segs %d bytes, want 10/14000", sf.InflightSegments(), sf.InflightBytes())
	}
}

func TestSendSegmentPanicsOnBadLength(t *testing.T) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 1e6})
	sf := NewSubflow(eng, Config{Name: "p"}, path, cc.NewReno(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SendSegment(0) did not panic")
		}
	}()
	sf.SendSegment(0, 0)
}

func TestCloseCancelsTimerAndUnregisters(t *testing.T) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 1e6, Delay: 10 * time.Second, QueueBytes: 1 << 20})
	lia := cc.NewLIA()
	sf := NewSubflow(eng, Config{Name: "p"}, path, lia, nil)
	rx := NewSubflowRecv(path, &bigWindowSink{})
	path.SetForwardReceiver(rx.OnPacket)
	path.SetReverseReceiver(sf.OnAck)
	sf.SendSegment(0, 1400)
	sf.Close()
	// With the RTO cancelled and a 20 s RTT, the run ends when the
	// (unanswered) packets drain, without timeout events.
	eng.RunUntil(2 * time.Second)
	if sf.Stats().Timeouts != 0 {
		t.Fatalf("timeouts = %d after Close, want 0", sf.Stats().Timeouts)
	}
}

func TestSubflowRecvOutOfOrderBuffering(t *testing.T) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 1e9})
	var acks []netsim.Packet
	rx := NewSubflowRecv(path, &bigWindowSink{})
	path.SetReverseReceiver(func(p *netsim.Packet) { acks = append(acks, *p) })
	// Deliver seq 1400 before seq 0.
	rx.OnPacket(&netsim.Packet{Kind: netsim.Data, Size: 1460, Seq: 1400, DSN: 1400, PayloadLen: 1400})
	eng.Run()
	if rx.expected != 0 {
		t.Fatalf("expected = %d, want 0 (hole at front)", rx.expected)
	}
	if len(acks) != 1 || !acks[0].SackHole || acks[0].AckSeq != 0 {
		t.Fatalf("first ack = %+v, want dup-ack with hole", acks[0])
	}
	rx.OnPacket(&netsim.Packet{Kind: netsim.Data, Size: 1460, Seq: 0, DSN: 0, PayloadLen: 1400})
	eng.Run()
	if rx.expected != 2800 {
		t.Fatalf("expected = %d after filling hole, want 2800", rx.expected)
	}
	if last := acks[len(acks)-1]; last.SackHole || last.AckSeq != 2800 {
		t.Fatalf("final ack = %+v, want cumulative 2800 no hole", last)
	}
}

func TestSubflowRecvCountsDuplicates(t *testing.T) {
	eng := sim.New()
	path := netsim.NewPath(eng, netsim.PathConfig{Name: "p", RateBps: 1e9})
	rx := NewSubflowRecv(path, &bigWindowSink{})
	path.SetReverseReceiver(func(*netsim.Packet) {})
	pkt := netsim.Packet{Kind: netsim.Data, Size: 1460, Seq: 0, DSN: 0, PayloadLen: 1400}
	rx.OnPacket(&pkt)
	rx.OnPacket(&pkt) // stale duplicate
	if rx.duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", rx.duplicates)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	// 8 Mbps path, 4 MB transfer: should finish in roughly
	// 4MB*8/8Mbps ≈ 4.2 s (plus slow start), definitely < 7 s.
	h := newHarness(t, netsim.PathConfig{Name: "p", RateBps: 8e6, Delay: 20 * time.Millisecond, QueueBytes: 64 << 10},
		Config{Name: "p"}, 4<<20)
	h.pmp.fill()
	h.eng.Run()
	if h.rx.expected != 4<<20 {
		t.Fatalf("incomplete transfer: %d", h.rx.expected)
	}
	dur := h.eng.Now().Seconds()
	if dur > 7 {
		t.Fatalf("transfer took %.1fs, want < 7s (≈ link-rate limited)", dur)
	}
	if dur < 4 {
		t.Fatalf("transfer took %.1fs, impossibly faster than the 8 Mbps link", dur)
	}
}
