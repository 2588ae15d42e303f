// Package obs is the observability layer: flight-recorder rings for
// engine, link and subflow events, scheduler decision traces, and the
// machine-readable run report — all recorded for at most one selected
// simulation cell and exported as Chrome trace-event JSON (Perfetto),
// a plain-text decision log, and a JSON run report.
//
// # The zero-cost-when-off contract
//
// Instrumentation is compiled into every hot path of the simulator —
// event dispatch in sim.Engine.Step, per-packet enqueue/deliver in
// netsim.Link, send/ACK/recovery in tcp.Subflow, every scheduler
// decision — and must therefore be provably free when no cell is being
// traced, which is always except under ecfbench -trace-cell:
//
//   - Every instrumentation site is a nil check on a recorder pointer
//     field of the instrumented object. Disabled, a site costs one
//     predictable not-taken branch and zero allocations; there is no
//     interface dispatch, no closure, no atomic, and no map lookup on
//     any per-event path.
//   - Recorder pointers are installed only on the object graph of the
//     one cell selected by SetTraceTarget, by core.NewNetwork/NewConn
//     when they find an armed recorder, and are torn down again by
//     Network.Close and by every Reset in the pooled lifecycle. Cells
//     that are not the target never see a non-nil recorder.
//   - The only cost paid by untraced cells while a trace target is set
//     is one atomic bool load plus a read-lock in results.runCell
//     (outside the simulation, once per cell); with no target set it is
//     the atomic load alone.
//
// The contract is enforced, not aspirational: with this package
// compiled in, the steady-state tests of internal/sim, netsim and tcp
// pin 0 allocations and exact event counts on the engine, link and
// subflow hot paths, and core.TestSteadyStateAllocsPerCell pins a whole
// simulation cell at 0 allocations and 1811 events; time is the
// ledger's (sim.ns_per_event, netsim.ns_per_pkt, core.cell_setup_us in
// benchmark/). Recording, when enabled, may allocate freely (ring
// snapshots, candidate-set copies) — tracing is a debugging mode, and a traced
// cell's simulation output is still byte-identical to an untraced run
// (the instrumentation only observes; the golden-output tests in
// internal/experiments pin this too).
//
// # Recording model
//
// Recorders are fixed-capacity overwrite-oldest rings: a trace of a
// long cell keeps the most recent window rather than growing without
// bound, and Dropped reports how much history was evicted. One
// CellRecorder aggregates the four rings (engine flight records, packet
// events, subflow events, scheduler decisions) for the selected cell.
//
// Cell selection is cooperative: results.runCell brackets every cell
// between EnterCell and its release func. The target cell takes the
// trace gate's write lock — it computes alone, so the armed recorder is
// observed only by its own object graph — while every other cell takes
// the read lock and proceeds concurrently as usual. The captured
// recorder is retrieved with CapturedCell after the run.
//
// This package deliberately imports nothing from the simulator, so
// sim, netsim, tcp, sched and mptcp can all depend on it without
// cycles: times are time.Duration, event kinds are uint8 (the exporter
// takes a kind-name resolver func), tickets are uint64.
package obs
