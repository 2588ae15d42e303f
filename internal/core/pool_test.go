package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestSteadyStateAllocsPerCell pins the two exact properties of the
// reference cell on a warm pooled worker. Allocations: once the pools
// have grown to the cell's working set, the whole graph (engine, links,
// demuxes, connection, subflows, segments, transfers, scheduler,
// controller, telemetry series) is reused and a cell allocates nothing
// — with the obs hooks compiled in and no trace target set, so this is
// also internal/obs's "zero cost when off" contract; a broken
// Reset-reuse path allocates tens of thousands of objects. Events: the
// cell is 1811 dispatches and inline claims, so a change that
// reintroduces per-packet events shows even where timing noise hides it.
//
// The minimum over the runs is asserted, not testing.AllocsPerRun's
// mean: a GC between cells — or the race detector, under which
// sync.Pool drops a quarter of its Puts at random — may legitimately
// empty a pool and force a one-off re-grow, while a missed Reset-reuse
// path shows in every run and cannot hide in the minimum.
func TestSteadyStateAllocsPerCell(t *testing.T) {
	const cellEvents = 1811
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep one P so the net pool's per-P cache is hit
	// The pools reach the cell's working set within two runs (the second
	// still grows ~40 objects, none after).
	runObsCell(t, nil)
	runObsCell(t, nil)

	const runs = 16
	p0, c0 := sim.TotalEvents()
	var m0, m1 runtime.MemStats
	best := ^uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&m0)
		runObsCell(t, nil)
		runtime.ReadMemStats(&m1)
		if d := m1.Mallocs - m0.Mallocs; d < best {
			best = d
		}
	}
	p1, c1 := sim.TotalEvents()
	if best != 0 {
		t.Errorf("warm pooled worker allocates %d objects per cell, want 0 (a Reset path stopped reusing its pooled state)", best)
	}
	if got := (p1 - p0) + (c1 - c0); got != runs*cellEvents {
		t.Errorf("%d cells took %d events, want %d each", runs, got, cellEvents)
	}
}
