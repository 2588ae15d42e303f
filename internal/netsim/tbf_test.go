package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTokenBucketBurstPassesAtLineRate(t *testing.T) {
	eng := sim.New()
	var arrived []sim.Time
	line := NewLink(eng, LinkConfig{Name: "line", RateBps: 1e9, Delay: 0}, func(p *Packet) {
		arrived = append(arrived, eng.Now())
	})
	tb := NewTokenBucket(eng, TokenBucketConfig{RateBps: 1e6, BurstBytes: 10_000}, line)
	// 5 KB burst fits the bucket: all packets traverse at line rate.
	for i := 0; i < 5; i++ {
		if !tb.Send(&Packet{Size: 1000}) {
			t.Fatal("burst within bucket was rejected")
		}
	}
	eng.Run()
	if len(arrived) != 5 {
		t.Fatalf("delivered %d, want 5", len(arrived))
	}
	if arrived[4] > time.Millisecond {
		t.Fatalf("burst took %v, want near-instant line-rate pass", arrived[4])
	}
}

func TestTokenBucketThrottlesToRate(t *testing.T) {
	eng := sim.New()
	var last sim.Time
	delivered := 0
	line := NewLink(eng, LinkConfig{Name: "line", RateBps: 1e9, Delay: 0}, func(p *Packet) {
		last = eng.Now()
		delivered++
	})
	// 1 Mbps shaping, tiny bucket: 25 KB should take ~0.2 s.
	tb := NewTokenBucket(eng, TokenBucketConfig{RateBps: 1e6, BurstBytes: 1500, QueueBytes: 1 << 20}, line)
	for i := 0; i < 25; i++ {
		tb.Send(&Packet{Size: 1000})
	}
	eng.Run()
	if delivered != 25 {
		t.Fatalf("delivered %d, want 25", delivered)
	}
	want := 25_000 * 8 / 1e6 // seconds
	got := last.Seconds()
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("25 KB at 1 Mbps finished at %.3fs, want ~%.3fs", got, want)
	}
	if tb.Shaped() == 0 {
		t.Fatal("expected shaped packets")
	}
}

func TestTokenBucketDropsOverflow(t *testing.T) {
	eng := sim.New()
	line := NewLink(eng, LinkConfig{Name: "line", RateBps: 1e9, Delay: 0}, func(*Packet) {})
	tb := NewTokenBucket(eng, TokenBucketConfig{RateBps: 1e5, BurstBytes: 1000, QueueBytes: 3000}, line)
	accepted := 0
	for i := 0; i < 10; i++ {
		if tb.Send(&Packet{Size: 1000}) {
			accepted++
		}
	}
	if tb.Dropped() == 0 {
		t.Fatal("expected drops with a 3 KB queue")
	}
	if accepted+int(tb.Dropped()) != 10 {
		t.Fatalf("accepted %d + dropped %d != 10", accepted, tb.Dropped())
	}
	eng.Run()
	if tb.QueuedBytes() != 0 {
		t.Fatalf("queue not drained: %d", tb.QueuedBytes())
	}
}

func TestTokenBucketRateChange(t *testing.T) {
	eng := sim.New()
	delivered := 0
	line := NewLink(eng, LinkConfig{Name: "line", RateBps: 1e9, Delay: 0}, func(*Packet) { delivered++ })
	tb := NewTokenBucket(eng, TokenBucketConfig{RateBps: 1e5, BurstBytes: 1000, QueueBytes: 1 << 20}, line)
	for i := 0; i < 20; i++ {
		tb.Send(&Packet{Size: 1000})
	}
	eng.RunUntil(100 * time.Millisecond)
	tb.SetRateBps(1e7) // 100x faster
	eng.Run()
	if delivered != 20 {
		t.Fatalf("delivered %d, want 20", delivered)
	}
	// At 0.1 Mbps alone, 20 KB would take 1.6 s; the speedup must land
	// well under that.
	if eng.Now() > time.Second {
		t.Fatalf("finished at %v, rate change had no effect", eng.Now())
	}
}

func TestTokenBucketPanicsOnBadRate(t *testing.T) {
	eng := sim.New()
	line := NewLink(eng, LinkConfig{Name: "line", RateBps: 1e9}, func(*Packet) {})
	assertPanics(t, "zero rate", func() { NewTokenBucket(eng, TokenBucketConfig{RateBps: 0}, line) })
	tb := NewTokenBucket(eng, TokenBucketConfig{RateBps: 1e6}, line)
	assertPanics(t, "negative set", func() { tb.SetRateBps(-1) })
}
