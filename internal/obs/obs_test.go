package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRingOverwritesOldest pins the ring semantics:
// past capacity the oldest records fall off, the snapshot stays in
// chronological order, and Total/Dropped account for every record ever
// seen.
func TestRingOverwritesOldest(t *testing.T) {
	r := newRing[EngineEvent](4)
	for i := 0; i < 10; i++ {
		r.Record(EngineEvent{Ticket: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events()) = %d, want 4 (the ring capacity)", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Ticket != want {
			t.Errorf("Events()[%d].Ticket = %d, want %d (oldest-first order after wrap)", i, ev.Ticket, want)
		}
	}
	if r.Total() != 10 {
		t.Errorf("Total() = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped() = %d, want 6", r.Dropped())
	}
}

// TestRingUnderCapacity checks the no-wrap path: everything recorded is
// returned, nothing reported dropped.
func TestRingUnderCapacity(t *testing.T) {
	r := newRing[PacketEvent](8)
	for i := 0; i < 3; i++ {
		r.Record(PacketEvent{Seq: int64(i)})
	}
	if got := r.Events(); len(got) != 3 || got[0].Seq != 0 || got[2].Seq != 2 {
		t.Errorf("Events() = %+v, want seqs 0,1,2 in order", got)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped() = %d, want 0", r.Dropped())
	}
}

// TestChromeTraceSchema exports a small recorder and checks the trace
// is valid Chrome trace-event JSON: a traceEvents array, required
// fields on every event, and non-decreasing timestamps (metadata
// records excepted — they carry no time).
func TestChromeTraceSchema(t *testing.T) {
	rec := NewCellRecorder("schema-test", 0)
	rec.Flight.Record(EngineEvent{At: 2 * time.Millisecond, Ticket: 1, Kind: 7})
	rec.Flight.Record(EngineEvent{At: 3 * time.Millisecond, Ticket: 2, Kind: KindCoalesced, Coalesced: true})
	rec.Packets.Record(PacketEvent{At: time.Millisecond, Op: PktEnqueue, Link: "wifi:fwd", Seq: 1, Size: 1448, QueuedBytes: 1448})
	rec.Packets.Record(PacketEvent{At: 4 * time.Millisecond, Op: PktDeliver, Link: "wifi:fwd", Seq: 1, Size: 1448})
	rec.Subflows.Record(SubflowEvent{At: time.Millisecond, Op: SfSend, Name: "wifi", Seq: 1, Cwnd: 10})
	rec.Decisions.Record(SchedDecision{At: time.Millisecond, Scheduler: "ecf", Chosen: "wifi",
		Candidates: []SchedCandidate{{Name: "wifi"}}, Ecf: &EcfQuantities{}})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	last := -1.0
	timed := 0
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("traceEvents[%d] has no ph: %v", i, ev)
		}
		if ph == "M" {
			continue
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			t.Fatalf("traceEvents[%d] has no numeric ts: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("traceEvents[%d] has no pid: %v", i, ev)
		}
		if ts < last {
			t.Fatalf("traceEvents[%d].ts = %v decreases (prev %v); Perfetto needs sorted events", i, ts, last)
		}
		last = ts
		timed++
	}
	if timed < 6 {
		t.Errorf("only %d timed events exported, want at least the 6 recorded", timed)
	}
}

// TestDecisionLogFormat smoke-tests the human-readable decision log:
// header, transfer grouping, and the Eq. 1/Eq. 2 lines for an ECF
// decision.
func TestDecisionLogFormat(t *testing.T) {
	rec := NewCellRecorder("log-test", 0)
	rec.Decisions.Record(SchedDecision{
		At: time.Millisecond, Scheduler: "ecf", Transfer: 0, Chosen: "wifi",
		Reason:     "fast subflow has window space",
		Candidates: []SchedCandidate{{Name: "wifi", CanSend: true}},
		Ecf:        &EcfQuantities{GuardUsed: true},
	})
	rec.Decisions.Record(SchedDecision{
		At: 2 * time.Millisecond, Scheduler: "ecf", Transfer: 1, Wait: true,
		Reason: "wait for fast subflow (Eq. 1 holds, Eq. 2 holds)",
	})
	var buf bytes.Buffer
	if err := rec.WriteDecisionLog(&buf); err != nil {
		t.Fatalf("WriteDecisionLog: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"cell log-test/0", "== transfer 0 ==", "== transfer 1 ==", "wifi", "wait", "eq1"} {
		if !strings.Contains(out, want) {
			t.Errorf("decision log missing %q:\n%s", want, out)
		}
	}
}
