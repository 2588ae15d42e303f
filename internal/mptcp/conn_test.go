package mptcp

import (
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// minRTTSched is a local copy of the default policy to avoid an import
// cycle with the sched package in tests.
type minRTTSched struct{}

func (minRTTSched) Name() string { return "test-minrtt" }

func (minRTTSched) Select(c *Conn) *tcp.Subflow {
	var best *tcp.Subflow
	for _, sf := range c.Subflows() {
		if !sf.CanSend() {
			continue
		}
		var bestRTT, rtt time.Duration
		if best != nil && best.HasRTTSample() {
			bestRTT = best.Srtt()
		}
		if sf.HasRTTSample() {
			rtt = sf.Srtt()
		}
		if best == nil || rtt < bestRTT {
			best = sf
		}
	}
	return best
}

// rig is a two-path MPTCP test rig.
type rig struct {
	eng  *sim.Engine
	conn *Conn
	wifi *netsim.Path
	lte  *netsim.Path
}

func newRig(t *testing.T, wifiMbps, lteMbps float64, cfg Config) *rig {
	t.Helper()
	eng := sim.New()
	wifi := netsim.NewPath(eng, netsim.PathConfig{Name: "wifi", RateBps: wifiMbps * 1e6, Delay: 10 * time.Millisecond, QueueBytes: 48 << 10})
	lte := netsim.NewPath(eng, netsim.PathConfig{Name: "lte", RateBps: lteMbps * 1e6, Delay: 40 * time.Millisecond, QueueBytes: 48 << 10})
	conn := NewConn(eng, cfg, cc.NewLIA())
	conn.SetScheduler(minRTTSched{})
	for _, p := range []*netsim.Path{wifi, lte} {
		fwd := netsim.NewDemux()
		rev := netsim.NewDemux()
		p.SetForwardReceiver(fwd.OnPacket)
		p.SetReverseReceiver(rev.OnPacket)
		conn.AddSubflow(p.Name(), p, fwd, rev)
	}
	return &rig{eng: eng, conn: conn, wifi: wifi, lte: lte}
}

func TestSingleTransferCompletes(t *testing.T) {
	r := newRig(t, 8, 8, DefaultConfig(0))
	var completed *Transfer
	r.conn.Write(1<<20, func(tr *Transfer) { completed = tr })
	r.eng.Run()
	if completed == nil {
		t.Fatal("transfer did not complete")
	}
	if got := r.conn.Receiver().DeliveredBytes(); got != 1<<20 {
		t.Fatalf("delivered %d bytes, want %d", got, 1<<20)
	}
	if completed.Duration() <= 0 {
		t.Fatal("completion time not positive")
	}
}

func TestBothSubflowsCarryTraffic(t *testing.T) {
	r := newRig(t, 8, 8, DefaultConfig(0))
	r.conn.Write(4<<20, nil)
	r.eng.Run()
	by := r.conn.Receiver().SubflowBytes()
	if by[0] == 0 || by[1] == 0 {
		t.Fatalf("subflow bytes = %v, want both non-zero", by)
	}
	if by[0]+by[1] < 4<<20 {
		t.Fatalf("total first-arrival bytes %d < transfer size", by[0]+by[1])
	}
}

func TestTransferSplitRoughlyTracksBandwidth(t *testing.T) {
	// 2 Mbps wifi vs 8 Mbps lte: the lte subflow should carry clearly
	// more than half of a long transfer.
	r := newRig(t, 2, 8, DefaultConfig(0))
	r.conn.Write(8<<20, nil)
	r.eng.Run()
	by := r.conn.Receiver().SubflowBytes()
	frac := float64(by[1]) / float64(by[0]+by[1])
	if frac < 0.6 {
		t.Fatalf("lte fraction = %.2f, want > 0.6 on a 2-vs-8 Mbps pair", frac)
	}
}

func TestRequestAddsRequestLatency(t *testing.T) {
	r := newRig(t, 8, 8, DefaultConfig(0))
	var tr *Transfer
	r.conn.Request(100_000, func(x *Transfer) { tr = x })
	r.eng.Run()
	if tr == nil {
		t.Fatal("request did not complete")
	}
	if tr.StartedAt <= tr.RequestedAt {
		t.Fatalf("StartedAt %v not after RequestedAt %v", tr.StartedAt, tr.RequestedAt)
	}
	// wifi one-way delay is 10 ms; request latency should be ~11 ms.
	if d := tr.StartedAt - tr.RequestedAt; d < 10*time.Millisecond || d > 15*time.Millisecond {
		t.Fatalf("request latency = %v, want ~11ms", d)
	}
}

func TestSequentialTransfersDeliverInOrder(t *testing.T) {
	r := newRig(t, 4, 8, DefaultConfig(0))
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.conn.Write(200_000, func(*Transfer) { order = append(order, i) })
	}
	r.eng.Run()
	if len(order) != 5 {
		t.Fatalf("completed %d transfers, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, want ascending", order)
		}
	}
}

func TestOOODelaysRecorded(t *testing.T) {
	// Strong heterogeneity forces reordering at the data level.
	r := newRig(t, 0.3, 8.6, DefaultConfig(0))
	r.conn.Write(2<<20, nil)
	r.eng.Run()
	delays := r.conn.Receiver().OOODelays()
	if len(delays) == 0 {
		t.Fatal("no OOO delay samples recorded")
	}
	var positive int
	for _, d := range delays {
		if d < 0 {
			t.Fatal("negative OOO delay")
		}
		if d > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("expected some positive OOO delays under heterogeneity")
	}
}

func TestLastPacketTimeDiff(t *testing.T) {
	r := newRig(t, 0.3, 8.6, DefaultConfig(0))
	var tr *Transfer
	r.conn.Write(1<<20, func(x *Transfer) { tr = x })
	r.eng.Run()
	if tr == nil {
		t.Fatal("no completion")
	}
	diff, ok := tr.LastPacketTimeDiff(0, 1)
	if !ok {
		t.Fatal("both subflows should have carried data")
	}
	// With a 0.3 vs 8.6 Mbps pair the slow path finishes way later
	// (paper Figure 5 shows ~1 s differences).
	if diff < 100*time.Millisecond {
		t.Fatalf("last-packet diff = %v, want substantial under heterogeneity", diff)
	}
}

func TestReceiverWindowAdvertised(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.RcvBuf = 64 << 10
	r := newRig(t, 0.3, 8.6, cfg)
	r.conn.Write(1<<20, nil)
	r.eng.Run()
	if got := r.conn.Receiver().DeliveredBytes(); got != 1<<20 {
		t.Fatalf("delivered %d with tiny rcvbuf, want full transfer", got)
	}
}

func TestOpportunisticRtxUnderTinyWindow(t *testing.T) {
	// A tiny send window plus a very slow primary path triggers
	// window-blocking; opportunistic rtx should reinject and penalize.
	cfg := DefaultConfig(0)
	cfg.SndBuf = 32 << 10
	cfg.RcvBuf = 32 << 10
	r := newRig(t, 0.2, 8.6, cfg)
	r.conn.Write(2<<20, nil)
	r.eng.Run()
	if r.conn.Receiver().DeliveredBytes() != 2<<20 {
		t.Fatalf("delivered %d, want full transfer", r.conn.Receiver().DeliveredBytes())
	}
	if r.conn.WindowStalls() == 0 {
		t.Fatal("expected send-window stalls with a 32 KiB window")
	}
	if r.conn.Reinjections() == 0 {
		t.Fatal("expected opportunistic reinjections")
	}
}

func TestWritePanicsWithoutScheduler(t *testing.T) {
	eng := sim.New()
	conn := NewConn(eng, DefaultConfig(0), cc.NewLIA())
	defer func() {
		if recover() == nil {
			t.Fatal("Write without scheduler did not panic")
		}
	}()
	conn.Write(1000, nil)
}

func TestWritePanicsOnNonPositiveSize(t *testing.T) {
	eng := sim.New()
	conn := NewConn(eng, DefaultConfig(0), cc.NewLIA())
	conn.SetScheduler(minRTTSched{})
	defer func() {
		if recover() == nil {
			t.Fatal("Write(0) did not panic")
		}
	}()
	conn.Write(0, nil)
}

func TestTransferAccessors(t *testing.T) {
	r := newRig(t, 8, 8, DefaultConfig(0))
	var tr *Transfer
	r.conn.Write(50_000, func(x *Transfer) { tr = x })
	r.eng.Run()
	if tr.Bytes != 50_000 || tr.EndDSN-tr.StartDSN != 50_000 {
		t.Fatalf("transfer bookkeeping wrong: %+v", tr)
	}
	if _, ok := tr.LastPacketTimeDiff(0, 99); ok {
		t.Fatal("LastPacketTimeDiff with unused subflow should report !ok")
	}
}

func TestTwoConnsShareBottleneck(t *testing.T) {
	// Two connections over the same 8 Mbps path pair must share capacity:
	// combined duration ≈ 2x a single transfer, and both complete.
	eng := sim.New()
	wifi := netsim.NewPath(eng, netsim.PathConfig{Name: "wifi", RateBps: 8e6, Delay: 10 * time.Millisecond, QueueBytes: 48 << 10})
	lte := netsim.NewPath(eng, netsim.PathConfig{Name: "lte", RateBps: 8e6, Delay: 40 * time.Millisecond, QueueBytes: 48 << 10})
	fwdW, revW := netsim.NewDemux(), netsim.NewDemux()
	fwdL, revL := netsim.NewDemux(), netsim.NewDemux()
	wifi.SetForwardReceiver(fwdW.OnPacket)
	wifi.SetReverseReceiver(revW.OnPacket)
	lte.SetForwardReceiver(fwdL.OnPacket)
	lte.SetReverseReceiver(revL.OnPacket)

	mk := func(id int) *Conn {
		c := NewConn(eng, DefaultConfig(id), cc.NewLIA())
		c.SetScheduler(minRTTSched{})
		c.AddSubflow("wifi", wifi, fwdW, revW)
		c.AddSubflow("lte", lte, fwdL, revL)
		return c
	}
	c1, c2 := mk(0), mk(1)
	done := 0
	c1.Write(2<<20, func(*Transfer) { done++ })
	c2.Write(2<<20, func(*Transfer) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("completed %d transfers, want 2", done)
	}
	if fwdW.Unrouted() != 0 || fwdL.Unrouted() != 0 {
		t.Fatal("demux dropped packets for known flows")
	}
	// 4 MiB total over ~16 Mbps aggregate ≈ 2.1 s minimum.
	if s := eng.Now().Seconds(); s < 2.0 || s > 8 {
		t.Fatalf("shared-bottleneck run took %.1fs, want 2-8s", s)
	}
}

func TestReceiverOnDataOrdering(t *testing.T) {
	eng := sim.New()
	r := newReceiver(eng, 1<<20)
	// DSN 1400 first: buffered, window shrinks.
	ack, win := r.OnData(&netsim.Packet{Kind: netsim.Data, DSN: 1400, PayloadLen: 1400, SubflowID: 1})
	if ack != 0 {
		t.Fatalf("dataAck = %d, want 0", ack)
	}
	if win != (1<<20)-1400 {
		t.Fatalf("window = %d, want rcvbuf-1400", win)
	}
	ack, win = r.OnData(&netsim.Packet{Kind: netsim.Data, DSN: 0, PayloadLen: 1400, SubflowID: 0})
	if ack != 2800 {
		t.Fatalf("dataAck = %d after fill, want 2800", ack)
	}
	if win != 1<<20 {
		t.Fatalf("window = %d after drain, want full", win)
	}
	if r.duplicateArrival != 0 {
		t.Fatal("no duplicates expected")
	}
	r.OnData(&netsim.Packet{Kind: netsim.Data, DSN: 0, PayloadLen: 1400, SubflowID: 0})
	if r.duplicateArrival != 1 {
		t.Fatal("stale DSN should count as duplicate")
	}
}
