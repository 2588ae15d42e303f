package mptcp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// receiverRef is a reference model of the connection-level reassembly
// logic as it was before the DSN-ordered ring: maps keyed by DSN and
// subflow ID, a verbatim port of the pre-ring OnData. The property test
// drives it and the real Receiver through identical randomized
// loss/reorder schedules and requires identical telemetry.
type receiverRef struct {
	rcvBuf   int64
	expected int64

	buffered      map[int64]refSeg
	bufferedBytes int64

	oooDelays        []time.Duration
	perSubflowBytes  map[int]int64
	lastArrival      map[int]sim.Time
	deliveredBytes   int64
	duplicateArrival int64
}

type refSeg struct {
	length  int
	arrival sim.Time
}

func newReceiverRef(rcvBuf int64) *receiverRef {
	return &receiverRef{
		rcvBuf:          rcvBuf,
		buffered:        make(map[int64]refSeg),
		perSubflowBytes: make(map[int]int64),
		lastArrival:     make(map[int]sim.Time),
	}
}

func (m *receiverRef) window() int64 {
	w := m.rcvBuf - m.bufferedBytes
	if w < 0 {
		w = 0
	}
	return w
}

func (m *receiverRef) onData(dsn int64, payload, subflow int, now sim.Time) (dataAck, window int64) {
	m.lastArrival[subflow] = now
	if dsn >= m.expected {
		if _, dup := m.buffered[dsn]; dup {
			m.duplicateArrival++
		} else {
			m.buffered[dsn] = refSeg{length: payload, arrival: now}
			m.bufferedBytes += int64(payload)
			m.perSubflowBytes[subflow] += int64(payload)
		}
	} else {
		m.duplicateArrival++
	}
	for {
		seg, ok := m.buffered[m.expected]
		if !ok {
			break
		}
		delete(m.buffered, m.expected)
		m.bufferedBytes -= int64(seg.length)
		m.expected += int64(seg.length)
		m.deliveredBytes += int64(seg.length)
		m.oooDelays = append(m.oooDelays, now-seg.arrival)
	}
	return m.expected, m.window()
}

// TestReceiverMatchesMapReference: ring-based DSN reassembly and the
// map-based reference agree on every observable — cumulative data ACK,
// advertised window, delivered bytes, duplicate count, the full
// OOO-delay sample sequence and the per-subflow accounting — over
// randomized loss/reorder/duplicate schedules with virtual time
// advancing between arrivals.
func TestReceiverMatchesMapReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed uint64, nRaw uint8, rcvKB uint16) bool {
		n := int(nRaw%60) + 2
		rcvBuf := int64(rcvKB%64+1) * 8192
		rng := sim.NewRNG(seed)

		// Segments with stable boundaries.
		type seg struct {
			dsn    int64
			length int
		}
		segs := make([]seg, n)
		var total int64
		for i := range segs {
			l := 100 + rng.Intn(1400)
			segs[i] = seg{dsn: total, length: l}
			total += int64(l)
		}
		// Window-bounded reorder of the first delivery of each segment,
		// plus retransmit/duplicate copies sprinkled into the tail.
		order := rng.Perm(n)
		schedule := make([]seg, 0, n+n/3)
		for _, idx := range order {
			schedule = append(schedule, segs[idx])
		}
		for d := 0; d < n/3; d++ {
			schedule = append(schedule, segs[rng.Intn(n)])
		}

		eng := sim.New()
		r := newReceiver(eng, rcvBuf)
		ref := newReceiverRef(rcvBuf)

		at := sim.Time(0)
		for i, s := range schedule {
			at += time.Duration(rng.Intn(5)) * time.Millisecond
			eng.RunUntil(at)
			sf := rng.Intn(3)
			gotAck, gotWin := r.OnData(&netsim.Packet{Kind: netsim.Data, DSN: s.dsn, PayloadLen: s.length, SubflowID: sf})
			wantAck, wantWin := ref.onData(s.dsn, s.length, sf, at)
			if gotAck != wantAck || gotWin != wantWin {
				t.Logf("arrival %d: (ack %d, win %d), reference (%d, %d)", i, gotAck, gotWin, wantAck, wantWin)
				return false
			}
			if r.DeliveredBytes() != ref.deliveredBytes || r.duplicateArrival != ref.duplicateArrival {
				t.Logf("arrival %d: delivered/dups (%d, %d), reference (%d, %d)",
					i, r.DeliveredBytes(), r.duplicateArrival, ref.deliveredBytes, ref.duplicateArrival)
				return false
			}
		}

		// Full telemetry equivalence at the end of the schedule.
		if r.expected != total || ref.expected != total {
			t.Logf("incomplete reassembly: %d / %d (total %d)", r.expected, ref.expected, total)
			return false
		}
		got := r.OOODelays()
		if len(got) != len(ref.oooDelays) {
			t.Logf("ooo sample counts: %d vs %d", len(got), len(ref.oooDelays))
			return false
		}
		for i := range got {
			if got[i] != ref.oooDelays[i] {
				t.Logf("ooo sample %d: %v vs %v", i, got[i], ref.oooDelays[i])
				return false
			}
		}
		for id, b := range r.SubflowBytes() {
			if b != ref.perSubflowBytes[id] {
				t.Logf("subflow %d bytes: %d vs %d", id, b, ref.perSubflowBytes[id])
				return false
			}
		}
		for id, b := range ref.perSubflowBytes {
			sb := r.SubflowBytes()
			if id >= len(sb) || sb[id] != b {
				t.Logf("subflow %d missing from dense slice", id)
				return false
			}
		}
		for id, last := range r.lastArrival {
			want, ok := ref.lastArrival[id]
			if last < 0 {
				if ok {
					t.Logf("subflow %d: dense says no arrival, reference has %v", id, want)
					return false
				}
				continue
			}
			if !ok || last != want {
				t.Logf("subflow %d last arrival: %v vs %v", id, last, want)
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
