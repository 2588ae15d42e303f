// Package obs is the single-cell flight recorder: rings of engine, link
// and subflow events and of scheduler decisions, recorded for one
// simulation cell at a time and exported as Chrome trace-event JSON
// (Perfetto) and a plain-text decision log. It holds no run-wide
// state: a run's summary is ecfbench's stderr lines, read from the
// simulator's own process counters.
//
// # The zero-cost-when-off contract
//
// Instrumentation is compiled into every hot path of the simulator —
// event dispatch in sim.Engine's run loop, per-packet enqueue/deliver in
// netsim.Link, send/ACK/recovery in tcp.Subflow, every scheduler
// decision — and must therefore be provably free when no cell is being
// traced, which is always except under ecfbench -trace-cell:
//
//   - A traced cell's recorder lives in one place: its sim.Engine
//     (Engine.Observe installs it, Engine.Recorder reads it). Every
//     instrumentation site is one nil check on its engine's recorder —
//     the engine's own dispatch, a netsim.Link or tcp.Subflow through
//     the engine it was built on, a scheduler through its connection
//     (mptcp.Conn.Recorder). Disabled, a site costs one predictable
//     not-taken branch and zero allocations; there is no interface
//     dispatch, no closure, no atomic, and no map lookup on any
//     per-event path.
//   - No link, subflow or scheduler holds a recorder of its own, so
//     nothing is attached or detached per object: Engine.Reset drops
//     the recorder, and core.Network.Close resets the engine, so a
//     pooled object graph never carries a recorder into its next cell.
//     An engine nobody observes never sees a non-nil recorder.
//   - There is no process-wide trace state: a cell is traced by
//     running its scenario once with a recorder passed in
//     (experiments.Trace), so a sweep, traced or not, pays nothing
//     outside the simulation either.
//
// The contract is enforced, not aspirational: with this package
// compiled in, the steady-state tests of internal/sim, netsim and tcp
// pin 0 allocations and exact event counts on the engine, link and
// subflow hot paths, and core.TestSteadyStateAllocsPerCell pins a whole
// simulation cell at 0 allocations and 1811 events; time is the
// ledger's (sim.ns_per_event, netsim.ns_per_pkt, core.cell_setup_us in
// benchmark/). Recording, when enabled, may allocate freely (ring
// snapshots, per-decision candidate sets) — tracing is a debugging
// mode, and a traced cell's simulation output is still byte-identical
// to an untraced run (the instrumentation only observes; a test in
// internal/experiments pins this per workload kind).
//
// # Recording model
//
// Recorders are fixed-capacity overwrite-oldest rings: a trace of a
// long cell keeps the most recent window rather than growing without
// bound, and Dropped reports how much history was evicted. One
// CellRecorder aggregates the four rings (engine flight records, packet
// events, subflow events, scheduler decisions) for the selected cell.
// A ring stores each record by value as its hook built it; a scheduler
// builds every decision fresh (its candidate set and Eq. 1–2 or BLEST
// quantities newly allocated), so no later decision can alias an
// earlier one and nothing is copied on the way in.
//
// A trace depends on its cell alone: every record holds virtual times,
// tickets, event kinds and simulator state, never an engine-local
// detail such as an arena slot, so the same cell traced in any process,
// after any other cells, exports the same bytes.
//
// This package deliberately imports nothing from the simulator, so
// sim, netsim, tcp, sched and mptcp can all depend on it without
// cycles: times are time.Duration, event kinds are uint8 (the exporter
// takes a kind-name resolver func), tickets are uint64.
package obs
