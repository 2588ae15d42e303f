package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// runObsCell runs the reference cell (5/5 Mbps default paths, one ECF
// connection, 4×256 KiB transfers, 30 simulated seconds).
func runObsCell(t testing.TB) {
	net := NewNetwork(DefaultPaths(5, 5))
	conn := net.NewConn(ConnOptions{Scheduler: "ecf"})
	for i := 0; i < 4; i++ {
		conn.Write(256<<10, nil)
	}
	net.Run(30 * time.Second)
	if conn.Receiver().DeliveredBytes() == 0 {
		t.Fatal("cell transferred nothing; the measurement is vacuous")
	}
	net.Close()
}

// TestTracedCellRecordsAllStreams drives one cell through the trace
// gate the way results.runCell does and checks that every pillar of the
// recorder observed traffic: engine dispatches, per-packet link events,
// subflow congestion events, and scheduler decisions.
func TestTracedCellRecordsAllStreams(t *testing.T) {
	obs.SetTraceTarget("core-obs-test", 0)
	defer obs.ClearTraceTarget()
	traced, release := obs.EnterCell("core-obs-test", 0)
	if !traced {
		t.Fatal("EnterCell did not match the target")
	}
	runObsCell(t)
	release()

	rec := obs.CapturedCell()
	if rec == nil {
		t.Fatal("no recorder captured")
	}
	if n := rec.Flight.Total(); n == 0 {
		t.Error("flight recorder saw no engine events")
	}
	if n := rec.Packets.Total(); n == 0 {
		t.Error("packet recorder saw no link events")
	}
	if n := rec.Subflows.Total(); n == 0 {
		t.Error("subflow recorder saw no congestion events")
	}
	if n := rec.Decisions.Total(); n == 0 {
		t.Error("decision recorder saw no scheduler decisions (ECF sink not wired?)")
	}
}

// TestRecorderDetachedAfterClose pins the teardown half of the
// contract: once the traced cell releases the gate, later cells on the
// same pooled object graph must not keep appending to the captured
// recorder (the pooled networks are reused by every subsequent cell).
func TestRecorderDetachedAfterClose(t *testing.T) {
	obs.SetTraceTarget("core-detach-test", 0)
	traced, release := obs.EnterCell("core-detach-test", 0)
	if !traced {
		t.Fatal("EnterCell did not match the target")
	}
	runObsCell(t)
	release()
	obs.ClearTraceTarget()

	rec := obs.CapturedCell()
	if rec == nil {
		t.Fatal("no recorder captured")
	}
	flight, packets, subflows, decisions := rec.Flight.Total(), rec.Packets.Total(), rec.Subflows.Total(), rec.Decisions.Total()

	runObsCell(t) // untraced; likely reuses the traced cell's pooled graph

	if got := rec.Flight.Total(); got != flight {
		t.Errorf("flight recorder grew after its cell closed: %d -> %d", flight, got)
	}
	if got := rec.Packets.Total(); got != packets {
		t.Errorf("packet recorder grew after its cell closed: %d -> %d", packets, got)
	}
	if got := rec.Subflows.Total(); got != subflows {
		t.Errorf("subflow recorder grew after its cell closed: %d -> %d", subflows, got)
	}
	if got := rec.Decisions.Total(); got != decisions {
		t.Errorf("decision recorder grew after its cell closed: %d -> %d", decisions, got)
	}
}

// BenchmarkCellSteadyState times the disabled observability path: the
// reference cell on a warm pooled worker, with the obs hooks compiled in
// but no trace target set. Its exact half — 0 allocs/op, 1811 events/op
// — is asserted by TestSteadyStateAllocsPerCell; ns/op is for comparing
// two builds on one host.
func BenchmarkCellSteadyState(b *testing.B) {
	runObsCell(b) // grow every pool to the working set
	b.ReportAllocs()
	p0, c0 := sim.TotalEvents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runObsCell(b)
	}
	b.StopTimer()
	p1, c1 := sim.TotalEvents()
	b.ReportMetric(float64((p1-p0)+(c1-c0))/float64(b.N), "events/op")
}
