package mptcp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// TestReceiverDeliversExactlyOnceUnderAnyArrivalOrder feeds the reorder
// buffer a random permutation of segments (with random duplicates) and
// checks the core invariant: every byte is delivered in order exactly
// once, and out-of-order delay samples are non-negative.
func TestReceiverDeliversExactlyOnceUnderAnyArrivalOrder(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, dupRaw uint8) bool {
		n := int(nRaw%50) + 1
		rng := sim.NewRNG(seed)
		eng := sim.New()
		r := newReceiver(eng, 1<<30)

		// Build n segments of varying size, then a shuffled arrival
		// order with some duplicates mixed in.
		type seg struct {
			dsn    int64
			length int
		}
		segs := make([]seg, n)
		dsn := int64(0)
		for i := range segs {
			l := 100 + rng.Intn(1400)
			segs[i] = seg{dsn: dsn, length: l}
			dsn += int64(l)
		}
		order := rng.Perm(n)
		arrivals := make([]seg, 0, n+int(dupRaw%8))
		for _, idx := range order {
			arrivals = append(arrivals, segs[idx])
		}
		for d := 0; d < int(dupRaw%8); d++ {
			arrivals = append(arrivals, segs[rng.Intn(n)])
		}

		at := time.Duration(0)
		for _, s := range arrivals {
			at += time.Millisecond
			eng.RunUntil(at)
			r.OnData(&netsim.Packet{Kind: netsim.Data, DSN: s.dsn, PayloadLen: s.length, SubflowID: rng.Intn(2)})
		}
		if r.expected != dsn {
			return false
		}
		if r.DeliveredBytes() != dsn {
			return false
		}
		if r.window() != 1<<30 {
			return false // buffer must be fully drained
		}
		for _, d := range r.OOODelays() {
			if d < 0 {
				return false
			}
		}
		// One delay sample per unique segment.
		return len(r.OOODelays()) == n
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndIntegrityUnderLoss runs random topologies with loss and
// verifies every transfer completes with the full byte count, no matter
// the heterogeneity.
func TestEndToEndIntegrityUnderLoss(t *testing.T) {
	if err := quick.Check(func(seed uint64, wifiRaw, lteRaw uint8, lossRaw uint8) bool {
		wifi := 0.3 + float64(wifiRaw%90)/10 // 0.3 .. 9.2 Mbps
		lte := 0.3 + float64(lteRaw%90)/10
		loss := float64(lossRaw%30) / 1000 // 0 .. 2.9%
		eng := sim.New()
		wifiPath := netsim.NewPath(eng, netsim.PathConfig{
			Name: "wifi", RateBps: wifi * 1e6, Delay: 10 * time.Millisecond,
			QueueBytes: 48 << 10, LossRate: loss, Seed: seed,
		})
		ltePath := netsim.NewPath(eng, netsim.PathConfig{
			Name: "lte", RateBps: lte * 1e6, Delay: 40 * time.Millisecond,
			QueueBytes: 48 << 10, LossRate: loss / 2, Seed: seed + 1,
		})
		conn := NewConn(eng, DefaultConfig(0), cc.NewLIA())
		conn.SetScheduler(minRTTSched{})
		for _, p := range []*netsim.Path{wifiPath, ltePath} {
			fwd, rev := netsim.NewDemux(), netsim.NewDemux()
			p.SetForwardReceiver(fwd.OnPacket)
			p.SetReverseReceiver(rev.OnPacket)
			conn.AddSubflow(p.Name(), p, fwd, rev)
		}
		const size = 600_000
		done := false
		conn.Write(size, func(*Transfer) { done = true })
		eng.RunUntil(10 * time.Minute)
		return done && conn.Receiver().DeliveredBytes() == size
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestConnInflightAccounting checks the send-window bookkeeping invariant
// across a transfer: data-level in-flight bytes never exceed the
// configured window and return to zero at completion.
func TestConnInflightAccounting(t *testing.T) {
	eng := sim.New()
	wifi := netsim.NewPath(eng, netsim.PathConfig{Name: "wifi", RateBps: 2e6, Delay: 10 * time.Millisecond, QueueBytes: 48 << 10})
	lte := netsim.NewPath(eng, netsim.PathConfig{Name: "lte", RateBps: 8e6, Delay: 40 * time.Millisecond, QueueBytes: 48 << 10})
	cfg := DefaultConfig(0)
	cfg.SndBuf = 256 << 10
	cfg.RcvBuf = 256 << 10
	conn := NewConn(eng, cfg, cc.NewLIA())
	conn.SetScheduler(minRTTSched{})
	for _, p := range []*netsim.Path{wifi, lte} {
		fwd, rev := netsim.NewDemux(), netsim.NewDemux()
		p.SetForwardReceiver(fwd.OnPacket)
		p.SetReverseReceiver(rev.OnPacket)
		conn.AddSubflow(p.Name(), p, fwd, rev)
	}
	done := false
	conn.Write(3<<20, func(*Transfer) { done = true })
	for !done && eng.Now() < 5*time.Minute {
		eng.RunUntil(eng.Now() + 50*time.Millisecond)
		// The advertised window may shrink below data already in flight
		// (a receiver cannot recall bytes), but in-flight data can never
		// exceed the send buffer itself.
		if got := conn.inflightBytes; got > cfg.SndBuf {
			t.Fatalf("inflight %d exceeds send buffer %d", got, cfg.SndBuf)
		}
		if conn.UnsentBytes() < 0 {
			t.Fatal("negative unsent bytes")
		}
	}
	if !done {
		t.Fatal("transfer incomplete")
	}
	eng.Run()
	if conn.inflightBytes != 0 {
		t.Fatalf("inflight %d at completion, want 0", conn.inflightBytes)
	}
	if conn.UnsentBytes() != 0 {
		t.Fatalf("unsent %d at completion, want 0", conn.UnsentBytes())
	}
}

// TestTransfersPreserveByteCounts (property): any mix of transfer sizes
// is delivered byte-exact, in order.
func TestTransfersPreserveByteCounts(t *testing.T) {
	if err := quick.Check(func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 8 {
			return true
		}
		eng := sim.New()
		wifi := netsim.NewPath(eng, netsim.PathConfig{Name: "wifi", RateBps: 5e6, Delay: 10 * time.Millisecond, QueueBytes: 48 << 10})
		lte := netsim.NewPath(eng, netsim.PathConfig{Name: "lte", RateBps: 5e6, Delay: 40 * time.Millisecond, QueueBytes: 48 << 10})
		conn := NewConn(eng, DefaultConfig(0), cc.NewLIA())
		conn.SetScheduler(minRTTSched{})
		for _, p := range []*netsim.Path{wifi, lte} {
			fwd, rev := netsim.NewDemux(), netsim.NewDemux()
			p.SetForwardReceiver(fwd.OnPacket)
			p.SetReverseReceiver(rev.OnPacket)
			conn.AddSubflow(p.Name(), p, fwd, rev)
		}
		var total int64
		completed := 0
		for _, s := range sizesRaw {
			size := int64(s%20000) + 1
			total += size
			conn.Write(size, func(*Transfer) { completed++ })
		}
		eng.RunUntil(5 * time.Minute)
		return completed == len(sizesRaw) && conn.Receiver().DeliveredBytes() == total
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
