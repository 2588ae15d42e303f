package sched

import (
	"repro/internal/mptcp"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// DAPS approximates the Delay-Aware Packet Scheduler (Kuhn et al., ICC
// 2014), which plans segment-to-path assignments ahead, in proportion
// to each path's cwnd/RTT service rate. This one plans nothing ahead.
// At every Select call it credits each subflow with its share of one
// segment (its cwnd/RTT over the sum over all subflows) and sends on
// the subflow with the largest credit among those with window space,
// which then pays one segment. It is work-conserving: it never waits
// for a subflow without window, so whenever only one subflow can send
// it sends there, as minRTT does. On the streaming workloads that is
// nearly every call (91,576 of 92,417 on Table 3's cell), and DAPS
// matches minRTT; the claims table in internal/experiments pins this.
type DAPS struct {
	// credit is indexed by subflow ID — IDs are the subflow's position
	// in the connection's creation order, so the counters are a dense
	// slice rather than a map hashed on every scheduling decision.
	credit []float64
}

// newDAPS returns a DAPS scheduler.
func newDAPS() *DAPS { return &DAPS{} }

// Name implements mptcp.Scheduler.
func (*DAPS) Name() string { return "daps" }

// Reset implements mptcp.Resettable: deficit counters clear (the slice
// keeps its capacity for the next connection's subflows).
func (d *DAPS) Reset() {
	d.credit = d.credit[:0]
}

// rate returns a subflow's service rate in segments/second.
func dapsRate(sf *tcp.Subflow) float64 {
	rtt := effSrtt(sf).Seconds()
	if rtt <= 0 {
		rtt = 0.1
	}
	w := sf.CwndSegments()
	if w < 1 {
		w = 1
	}
	return w / rtt
}

// Select implements mptcp.Scheduler.
func (d *DAPS) Select(c *mptcp.Conn) *tcp.Subflow {
	subflows := c.Subflows()
	for len(d.credit) < len(subflows) {
		d.credit = append(d.credit, 0)
	}
	var sum float64
	anyAvailable := false
	for _, sf := range subflows {
		sum += dapsRate(sf)
		if sf.CanSend() {
			anyAvailable = true
		}
	}
	if !anyAvailable || sum <= 0 {
		if c.Recorder() != nil {
			recordDecision(c, "daps", nil, false, "no subflow with window space", nil)
		}
		return nil
	}
	// Credit every subflow with its share of one segment.
	for _, sf := range subflows {
		d.credit[sf.ID()] += dapsRate(sf) / sum
	}
	// Send on the available subflow with the largest credit.
	var best *tcp.Subflow
	for _, sf := range subflows {
		if !sf.CanSend() {
			continue
		}
		if best == nil || d.credit[sf.ID()] > d.credit[best.ID()] {
			best = sf
		}
	}
	d.credit[best.ID()]--
	if c.Recorder() != nil {
		recordDecision(c, "daps", best, false, "largest deficit credit among available subflows",
			func(dec *obs.SchedDecision) {
				for i := range dec.Candidates {
					if id := subflows[i].ID(); id < len(d.credit) {
						dec.Candidates[i].Score = d.credit[id]
					}
				}
			})
	}
	return best
}
