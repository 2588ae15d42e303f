// Package repro is a from-scratch Go reproduction of "ECF: An MPTCP Path
// Scheduler to Manage Heterogeneous Paths" (Lim, Nahum, Towsley, Gibbens
// — CoNEXT 2017).
//
// The library builds every layer the paper's evaluation rests on — a
// discrete-event network simulator, packet-level TCP subflows with
// coupled congestion control, the MPTCP connection layer with
// opportunistic retransmission and penalization, the ECF scheduler and
// its baselines (default minimum-RTT, BLEST, DAPS), a DASH streaming
// stack and web workloads — plus a harness (cmd/ecfbench) that
// regenerates every table and figure. The experiment matrix runs as one
// batch of cells across workers, with a persistent per-cell result
// cache and cross-process sharding (internal/results), so reruns only
// simulate changed cells and sweeps split across machines.
//
// See README.md for a tour of the packages, how to run the harness,
// and the experiment index.
package repro
