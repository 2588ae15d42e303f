package netsim

import (
	"testing"
	"testing/quick"
)

func TestDemuxRoutesByFlow(t *testing.T) {
	d := NewDemux()
	var gotA, gotB []Packet
	d.Register(1, 0, func(p *Packet) { gotA = append(gotA, *p) })
	d.Register(2, 1, func(p *Packet) { gotB = append(gotB, *p) })
	d.OnPacket(&Packet{ConnID: 1, SubflowID: 0, Seq: 1})
	d.OnPacket(&Packet{ConnID: 2, SubflowID: 1, Seq: 2})
	d.OnPacket(&Packet{ConnID: 1, SubflowID: 0, Seq: 3})
	if len(gotA) != 2 || len(gotB) != 1 {
		t.Fatalf("routes: A=%d B=%d, want 2/1", len(gotA), len(gotB))
	}
	if gotA[1].Seq != 3 || gotB[0].Seq != 2 {
		t.Fatal("payload routing mismatch")
	}
}

func TestDemuxUnknownFlowCounted(t *testing.T) {
	d := NewDemux()
	d.OnPacket(&Packet{ConnID: 9, SubflowID: 9})
	if d.Unrouted() != 1 {
		t.Fatalf("unrouted = %d, want 1", d.Unrouted())
	}
}

func TestDemuxUnregister(t *testing.T) {
	d := NewDemux()
	n := 0
	d.Register(1, 0, func(*Packet) { n++ })
	d.OnPacket(&Packet{ConnID: 1, SubflowID: 0})
	d.unregister(1, 0)
	d.OnPacket(&Packet{ConnID: 1, SubflowID: 0})
	if n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	if d.Unrouted() != 1 {
		t.Fatalf("unrouted = %d, want 1 after unregister", d.Unrouted())
	}
}

func TestDemuxReplaceRoute(t *testing.T) {
	d := NewDemux()
	a, b := 0, 0
	d.Register(1, 0, func(*Packet) { a++ })
	d.Register(1, 0, func(*Packet) { b++ })
	d.OnPacket(&Packet{ConnID: 1, SubflowID: 0})
	if a != 0 || b != 1 {
		t.Fatalf("a=%d b=%d, replacement should win", a, b)
	}
}

func TestDemuxConservationProperty(t *testing.T) {
	// Every packet is either routed to exactly one receiver or counted
	// as unrouted.
	if err := quick.Check(func(conns []uint8) bool {
		if len(conns) > 200 {
			return true
		}
		d := NewDemux()
		counts := make(map[int]int)
		for c := 0; c < 4; c++ {
			c := c
			d.Register(c, 0, func(*Packet) { counts[c]++ })
		}
		for _, c := range conns {
			d.OnPacket(&Packet{ConnID: int(c % 8), SubflowID: 0})
		}
		routed := 0
		for _, n := range counts {
			routed += n
		}
		return routed+int(d.Unrouted()) == len(conns)
	}, nil); err != nil {
		t.Fatal(err)
	}
}
