package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// subflowRecvRef is a reference model of the receive-side reassembly
// logic as it was before the seq-ordered ring: a map keyed by subflow
// sequence number. The property tests drive it and the real SubflowRecv
// through identical randomized loss/reorder/duplicate schedules and
// require identical observable behaviour packet by packet.
type subflowRecvRef struct {
	expected   int64
	buffered   map[int64]int
	received   int64
	duplicates int64
}

func newSubflowRecvRef() *subflowRecvRef {
	return &subflowRecvRef{buffered: make(map[int64]int)}
}

// onPacket folds one data packet in and returns the ACK fields the old
// implementation would have emitted: the cumulative ACK and the
// SACK-style hole hint.
func (m *subflowRecvRef) onPacket(seq int64, payload int) (ackSeq int64, sackHole bool) {
	m.received++
	if seq >= m.expected {
		if _, dup := m.buffered[seq]; dup {
			m.duplicates++
		} else {
			m.buffered[seq] = payload
		}
	} else {
		m.duplicates++
	}
	for {
		l, ok := m.buffered[m.expected]
		if !ok {
			break
		}
		delete(m.buffered, m.expected)
		m.expected += int64(l)
	}
	return m.expected, len(m.buffered) > 0
}

// lossReorderSchedule builds a randomized arrival schedule over n
// segments with stable boundaries: the in-order stream is perturbed by
// window-bounded reordering (as multiple paths produce), random
// "losses" whose segments arrive again later as retransmits, and
// outright duplicate deliveries (retransmit races). Every segment
// arrives at least once, so reassembly must complete.
type arrival struct {
	seq    int64
	length int
}

func lossReorderSchedule(rng *sim.RNG, n int) (schedule []arrival, total int64) {
	segs := make([]arrival, n)
	var next int64
	for i := range segs {
		l := 100 + rng.Intn(1400)
		segs[i] = arrival{seq: next, length: l}
		next += int64(l)
	}
	// First pass: each segment delivered once, displaced by up to a
	// window of 8 positions (Fisher-Yates restricted to a local window).
	order := make([]arrival, n)
	copy(order, segs)
	for i := range order {
		w := i + 1 + rng.Intn(8)
		if w >= n {
			w = n - 1
		}
		j := i + rng.Intn(w-i+1)
		order[i], order[j] = order[j], order[i]
	}
	// Second pass: sprinkle retransmit/duplicate copies of random
	// segments into the tail half of the schedule.
	schedule = order
	for d := 0; d < n/3; d++ {
		s := segs[rng.Intn(n)]
		pos := n/2 + rng.Intn(n/2+1)
		if pos >= len(schedule) {
			schedule = append(schedule, s)
		} else {
			schedule = append(schedule[:pos+1], schedule[pos:]...)
			schedule[pos] = s
		}
	}
	return schedule, next
}

// TestSubflowRecvMatchesMapReference: the ring-based receiver and the
// map-based reference emit identical ACK streams (cumulative ACK and
// hole hint per arrival) and identical duplicate counts over randomized
// loss/reorder schedules.
func TestSubflowRecvMatchesMapReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		rng := sim.NewRNG(seed)
		schedule, total := lossReorderSchedule(rng, n)

		eng := sim.New()
		path := netsim.NewPath(eng, netsim.PathConfig{Name: "prop", RateBps: 1e9, Delay: time.Millisecond})
		var acks []netsim.Packet
		path.SetReverseReceiver(func(p *netsim.Packet) { acks = append(acks, *p) })
		rx := NewSubflowRecv(path, benchSink{})
		ref := newSubflowRecvRef()

		for i, s := range schedule {
			rx.OnPacket(&netsim.Packet{Kind: netsim.Data, Size: s.length + 60, Seq: s.seq, DSN: s.seq, PayloadLen: s.length})
			eng.Run() // deliver the emitted ACK through the reverse link
			wantAck, wantHole := ref.onPacket(s.seq, s.length)
			if rx.expected != wantAck {
				t.Logf("arrival %d: expected = %d, reference = %d", i, rx.expected, wantAck)
				return false
			}
			if rx.duplicates != ref.duplicates {
				t.Logf("arrival %d: duplicates = %d, reference = %d", i, rx.duplicates, ref.duplicates)
				return false
			}
			// Every arrival emits exactly one ACK (delayed ACKs off);
			// its fields must match the reference.
			if len(acks) != i+1 {
				t.Logf("arrival %d: %d acks emitted", i, len(acks))
				return false
			}
			if acks[i].AckSeq != wantAck || acks[i].SackHole != wantHole {
				t.Logf("arrival %d: ack (%d, hole=%v), reference (%d, hole=%v)",
					i, acks[i].AckSeq, acks[i].SackHole, wantAck, wantHole)
				return false
			}
		}
		// Completeness: everything delivered, nothing left buffered.
		return rx.expected == total && ref.expected == total && len(ref.buffered) == 0
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
