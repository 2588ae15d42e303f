package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestLinkSteadyStateAllocs pins the tentpole invariant of the
// allocation-free core: once the engine arena and the link's in-flight
// ring have grown to the working set, forwarding a packet (Send +
// departure + arrival + delivery) allocates nothing — and costs exactly
// one event, its arrival (departures are accounted lazily).
func TestLinkSteadyStateAllocs(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, LinkConfig{
		Name:       "allocs",
		RateBps:    100e6,
		Delay:      2 * time.Millisecond,
		QueueBytes: 1 << 20,
	}, func(*Packet) {})
	const batch = 64
	cycle := func() {
		for i := 0; i < batch; i++ {
			l.Send(&Packet{Kind: Data, Size: 1200})
		}
		eng.Run()
	}
	cycle() // warm the arena, heap and ring
	events0 := eng.Processed() + eng.Coalesced()
	const runs = 50
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("steady-state link forwarding allocates %v per %d-packet batch, want 0", avg, batch)
	}
	// AllocsPerRun calls cycle once more than it measures.
	if events, pkts := eng.Processed()+eng.Coalesced()-events0, uint64((runs+1)*batch); events != pkts {
		t.Fatalf("%d events for %d packets, want exactly one per packet", events, pkts)
	}
}

// TestLinkLossySteadyStateAllocs covers the RNG delivery branch.
func TestLinkLossySteadyStateAllocs(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, LinkConfig{
		Name:       "allocs",
		RateBps:    100e6,
		Delay:      2 * time.Millisecond,
		QueueBytes: 1 << 20,
		LossRate:   0.2,
		Seed:       11,
	}, func(*Packet) {})
	const batch = 64
	cycle := func() {
		for i := 0; i < batch; i++ {
			l.Send(&Packet{Kind: Data, Size: 1200})
		}
		eng.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("lossy link forwarding allocates %v per %d-packet batch, want 0", avg, batch)
	}
}
