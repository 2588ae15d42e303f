package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// runObsCell runs the reference cell (5/5 Mbps default paths, one ECF
// connection, 4×256 KiB transfers, 30 simulated seconds), observed by
// rec when it is non-nil.
func runObsCell(t testing.TB, rec *obs.CellRecorder) {
	net := NewNetwork(DefaultPaths(5, 5))
	if rec != nil {
		net.Engine().Observe(rec)
	}
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

// TestTracedCellRecordsAllStreams observes one cell and checks that
// every pillar of the recorder saw traffic: engine dispatches,
// per-packet link events, subflow congestion events, and scheduler
// decisions.
func TestTracedCellRecordsAllStreams(t *testing.T) {
	rec := obs.NewCellRecorder("core-obs-test", 0)
	runObsCell(t, rec)
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
// contract: once the observed network closes, later cells on the same
// pooled object graph must not keep appending to its recorder.
func TestRecorderDetachedAfterClose(t *testing.T) {
	rec := obs.NewCellRecorder("core-detach-test", 0)
	runObsCell(t, rec)
	flight, packets, subflows, decisions := rec.Flight.Total(), rec.Packets.Total(), rec.Subflows.Total(), rec.Decisions.Total()

	runObsCell(t, nil) // unobserved; likely reuses the observed cell's pooled graph

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
// but no recorder installed. Its exact half — 0 allocs/op, 1811 events/op
// — is asserted by TestSteadyStateAllocsPerCell; ns/op is for comparing
// two builds on one host.
func BenchmarkCellSteadyState(b *testing.B) {
	runObsCell(b, nil) // grow every pool to the working set
	b.ReportAllocs()
	p0, c0 := sim.TotalEvents()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runObsCell(b, nil)
	}
	b.StopTimer()
	p1, c1 := sim.TotalEvents()
	b.ReportMetric(float64((p1-p0)+(c1-c0))/float64(b.N), "events/op")
}
