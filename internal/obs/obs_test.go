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

// TestDecisionRecorderCopiesDeeply pins the aliasing contract:
// schedulers reuse their candidate scratch and quantity structs between
// Select calls, so RecordDecision must deep-copy everything it stores.
func TestDecisionRecorderCopiesDeeply(t *testing.T) {
	r := &DecisionRecorder{newRing[SchedDecision](4)}
	cands := []SchedCandidate{{Name: "wifi", Srtt: 20 * time.Millisecond}}
	ecf := &EcfQuantities{LHS: 1, RHS: 2}
	d := SchedDecision{Scheduler: "ecf", Chosen: "wifi", Candidates: cands, Ecf: ecf}
	r.RecordDecision(&d)

	cands[0].Name = "mutated"
	ecf.LHS = 99
	d.Chosen = "mutated"

	got := r.Events()
	if len(got) != 1 {
		t.Fatalf("len(Events()) = %d, want 1", len(got))
	}
	if got[0].Candidates[0].Name != "wifi" {
		t.Errorf("stored candidate aliased the scheduler's scratch: Name = %q", got[0].Candidates[0].Name)
	}
	if got[0].Ecf.LHS != 1 {
		t.Errorf("stored EcfQuantities aliased the scheduler's struct: LHS = %v", got[0].Ecf.LHS)
	}
	if got[0].Chosen != "wifi" {
		t.Errorf("stored decision aliased the caller's struct: Chosen = %q", got[0].Chosen)
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
	rec.Decisions.RecordDecision(&SchedDecision{At: time.Millisecond, Scheduler: "ecf", Chosen: "wifi",
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
	rec.Decisions.RecordDecision(&SchedDecision{
		At: time.Millisecond, Scheduler: "ecf", Transfer: 0, Chosen: "wifi",
		Reason:     "fast subflow has window space",
		Candidates: []SchedCandidate{{Name: "wifi", CanSend: true}},
		Ecf:        &EcfQuantities{GuardUsed: true},
	})
	rec.Decisions.RecordDecision(&SchedDecision{
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

// TestCellDurationPercentiles: p50 and p95 are nearest-rank — the
// ⌈p·n/100⌉-th smallest sample — and max the largest, whatever order
// the samples come in.
func TestCellDurationPercentiles(t *testing.T) {
	for _, tc := range []struct {
		ms            []int // in arrival order
		p50, p95, max float64
	}{
		{[]int{7}, 7, 7, 7},
		{[]int{9, 3}, 3, 9, 9},
		{[]int{4, 1, 8, 2}, 2, 8, 8},
		{[]int{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5, 10, 10},
		{[]int{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 10, 19, 20},
	} {
		durs := make([]time.Duration, len(tc.ms))
		for i, ms := range tc.ms {
			durs[i] = time.Duration(ms) * time.Millisecond
		}
		var r RunReport
		r.SetCellDurations(durs)
		if r.CellP50Ms != tc.p50 || r.CellP95Ms != tc.p95 || r.CellMaxMs != tc.max {
			t.Errorf("n = %d: p50/p95/max = %v/%v/%v ms, want %v/%v/%v",
				len(tc.ms), r.CellP50Ms, r.CellP95Ms, r.CellMaxMs, tc.p50, tc.p95, tc.max)
		}
	}
}

// TestRunReportRoundTrip writes a report and reads it back, checking the
// schema fields a dashboard would key on.
func TestRunReportRoundTrip(t *testing.T) {
	rep := NewRunReport("quick", 4)
	rep.CellsRead, rep.Cells, rep.CacheComputed = 144, 144, 144
	rep.EventsProcessed, rep.EventsCoalesced, rep.EventsTotal = 1000, 24, 1024
	rep.EventsByKind = map[string]uint64{"netsim.Link.drain": 900, "trace.rttJitter": 100}
	rep.PacketsDelivered = 800
	// Unsorted on purpose: SetCellDurations sorts and takes
	// nearest-rank percentiles (over sorted [1 2 4 8] ms the p50 is the
	// 2nd sample and p95/max land on the largest).
	rep.SetCellDurations([]time.Duration{
		4 * time.Millisecond, time.Millisecond, 8 * time.Millisecond, 2 * time.Millisecond,
	})
	if rep.CellP50Ms != 2 || rep.CellP95Ms != 8 || rep.CellMaxMs != 8 {
		t.Errorf("duration stats = %v/%v/%v ms, want 2/8/8", rep.CellP50Ms, rep.CellP95Ms, rep.CellMaxMs)
	}
	rep.Experiments = append(rep.Experiments, ExperimentReport{
		Name: "fig9", RenderMs: 0.5, CellsRead: 144, OutputBytes: 4096, OutputSHA256: "abc",
	})
	rep.WallClockMs = 13
	rep.OutputSHA256 = "def"
	rep.Queue = QueueReport{DepthMax: 42, DepthMean: 17.5}
	rep.Mem = CaptureMemStats()

	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	raw := buf.Bytes()
	if raw[len(raw)-1] != '\n' {
		t.Error("report file does not end in a newline")
	}
	var got RunReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Tool != "ecfbench" || got.SchemaVersion != 6 {
		t.Errorf("identity = %s/v%d, want ecfbench/v6", got.Tool, got.SchemaVersion)
	}
	if got.Queue != (QueueReport{DepthMax: 42, DepthMean: 17.5}) {
		t.Errorf("queue section did not round-trip: %+v", got.Queue)
	}
	if got.Scale != "quick" || got.Workers != 4 {
		t.Errorf("scale/workers = %s/%d, want quick/4", got.Scale, got.Workers)
	}
	if got.EventsTotal != 1024 || got.EventsByKind["trace.rttJitter"] != 100 || got.CellP50Ms != 2 || got.PacketsDelivered != 800 {
		t.Errorf("run counters did not round-trip: %+v", got)
	}
	if len(got.Experiments) != 1 || got.Experiments[0].Name != "fig9" ||
		got.Experiments[0].CellsRead != 144 || got.Experiments[0].OutputSHA256 != "abc" {
		t.Errorf("experiments did not round-trip: %+v", got.Experiments)
	}
	// The JSON keys are the machine-readable contract; spot-check the
	// snake_case names a consumer greps for.
	for _, key := range []string{"schema_version", "wall_clock_ms", "cells_read", "render_ms", "events_coalesced", "events_by_kind", "cell_p50_ms", "output_sha256", "heap_alloc_bytes", "depth_max", "depth_mean"} {
		if !bytes.Contains(raw, []byte(`"`+key+`"`)) {
			t.Errorf("report JSON missing key %q", key)
		}
	}
}
