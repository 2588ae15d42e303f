// Package sched implements the MPTCP path schedulers the paper compares:
// the kernel default (minimum RTT), the paper's contribution ECF, and the
// two prior-work baselines BLEST and DAPS, plus the single-path
// scheduler behind Table 1's WiFi-only reference.
package sched

import (
	"time"

	"repro/internal/mptcp"
	"repro/internal/tcp"
)

// effSrtt returns a subflow's smoothed RTT for scheduling comparisons.
// Subflows without a sample yet report zero, which sorts them first —
// mirroring the kernel, where a fresh subflow (srtt 0) is preferred and
// list order (primary first) breaks ties.
func effSrtt(sf *tcp.Subflow) time.Duration {
	if !sf.HasRTTSample() {
		return 0
	}
	return sf.Srtt()
}

// fastestAvailable returns the lowest-RTT subflow with congestion-window
// space, or nil.
func fastestAvailable(subflows []*tcp.Subflow) *tcp.Subflow {
	var best *tcp.Subflow
	for _, sf := range subflows {
		if !sf.CanSend() {
			continue
		}
		if best == nil || effSrtt(sf) < effSrtt(best) {
			best = sf
		}
	}
	return best
}

// fastestOverall returns the lowest-RTT subflow regardless of window
// space, or nil if the connection has no subflows.
func fastestOverall(subflows []*tcp.Subflow) *tcp.Subflow {
	var best *tcp.Subflow
	for _, sf := range subflows {
		if best == nil || effSrtt(sf) < effSrtt(best) {
			best = sf
		}
	}
	return best
}

// MinRTT is the default MPTCP scheduler: pick the available subflow with
// the smallest RTT estimate (§2.1). Its failure mode under heterogeneity
// — filling the slow path whenever the fast path's window is full,
// leaving the fast path idle at burst tails — is the problem the paper
// diagnoses in §3.
//
// MinRTT is stateless and so not mptcp.Resettable: the network pool
// keeps no free list for it, and a zero-size MinRTT allocates nothing.
type MinRTT struct{}

// newMinRTT returns the default scheduler.
func newMinRTT() *MinRTT { return &MinRTT{} }

// Name implements mptcp.Scheduler.
func (*MinRTT) Name() string { return "minrtt" }

// Select implements mptcp.Scheduler.
func (*MinRTT) Select(c *mptcp.Conn) *tcp.Subflow {
	best := fastestAvailable(c.Subflows())
	if c.Recorder() != nil {
		reason := "lowest-RTT subflow with window space"
		if best == nil {
			reason = "no subflow with window space"
		}
		recordDecision(c, "minrtt", best, false, reason, nil)
	}
	return best
}

// SinglePath pins all traffic to one subflow (by index), modelling a
// plain single-interface TCP connection for reference curves.
type SinglePath struct {
	idx int
}

// newSinglePath returns a scheduler pinned to subflow idx.
func newSinglePath(idx int) *SinglePath { return &SinglePath{idx: idx} }

// Name implements mptcp.Scheduler.
func (*SinglePath) Name() string { return "singlepath" }

// Reset implements mptcp.Resettable: the pinned index is
// construction-time configuration and persists (the pool keys instances
// by registry name, so a pooled "wifi-only" stays pinned to WiFi).
func (*SinglePath) Reset() {}

// Select implements mptcp.Scheduler.
func (s *SinglePath) Select(c *mptcp.Conn) *tcp.Subflow {
	subflows := c.Subflows()
	if s.idx >= len(subflows) {
		return nil
	}
	if sf := subflows[s.idx]; sf.CanSend() {
		return sf
	}
	return nil
}
