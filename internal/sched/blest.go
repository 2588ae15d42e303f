package sched

import (
	"repro/internal/mptcp"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// BLEST is the Blocking Estimation-based scheduler (Ferlin et al., IFIP
// Networking 2016). Like ECF it can decline to use a slow subflow, but
// its criterion is different: it estimates whether occupying the
// connection-level send window with a slow-path segment for one slow RTT
// would leave the fast subflow without window space (head-of-line
// blocking of the send window), not whether the fast path will go idle
// for lack of data — the distinction the paper draws in §5.1 and exploits
// in §5.2.3.
//
// Decision (slow subflow S considered because fast subflow F is full):
//
//	rtts = RTT_S / RTT_F                       (fast rounds per slow RTT)
//	X    = MSS·(CWND_F + (rtts-1)/2)·rtts      (bytes F could send meanwhile)
//	skip S when  X·λ  >  |W| − (inflight_S + 1)·MSS
//
// λ is a correction factor adapted upward whenever a send-window stall is
// observed and slowly decayed back toward 1.
type BLEST struct {
	// Lambda is the adaptive correction factor (starts at 1).
	Lambda float64
	// LambdaStep is added to λ on observed send-window stalls.
	LambdaStep float64

	lastStalls int64
	waits      int64
}

// NewBLEST returns a BLEST scheduler with λ = 1.
func NewBLEST() *BLEST {
	return &BLEST{Lambda: 1.0, LambdaStep: 0.25}
}

// Name implements mptcp.Scheduler.
func (*BLEST) Name() string { return "blest" }

// Reset implements mptcp.Resettable: λ returns to its starting value
// (it is adapted per connection) and the stall tracking clears;
// LambdaStep is construction-time configuration and persists.
func (b *BLEST) Reset() {
	b.Lambda = 1.0
	b.lastStalls = 0
	b.waits = 0
}

// Waits reports how many Select calls declined the slow subflow.
func (b *BLEST) Waits() int64 { return b.waits }

// Select implements mptcp.Scheduler.
func (b *BLEST) Select(c *mptcp.Conn) *tcp.Subflow {
	subflows := c.Subflows()
	xf := fastestOverall(subflows)
	if xf == nil {
		if c.Recorder() != nil {
			recordDecision(c, "blest", nil, false, "no subflows", nil)
		}
		return nil
	}
	if xf.CanSend() {
		if c.Recorder() != nil {
			recordDecision(c, "blest", xf, false, "fast subflow has window space", nil)
		}
		return xf
	}
	xs := fastestAvailable(subflows)
	if xs == nil {
		if c.Recorder() != nil {
			recordDecision(c, "blest", nil, false, "fast subflow full, no alternative with window space", nil)
		}
		return nil
	}

	// Adapt λ: any new send-window stall since the last decision means
	// the previous estimate was too permissive.
	if stalls := c.WindowStalls(); stalls > b.lastStalls {
		b.Lambda += b.LambdaStep
		b.lastStalls = stalls
	} else if b.Lambda > 1 {
		b.Lambda -= 0.01
		if b.Lambda < 1 {
			b.Lambda = 1
		}
	}

	in := blestInput{
		RTTF:      effSrtt(xf).Seconds(),
		RTTS:      effSrtt(xs).Seconds(),
		CwndF:     xf.CwndSegments(),
		MSS:       tcp.MSS,
		FreeBytes: float64(c.SendWindowFreeBytes()),
		InflightS: float64(xs.InflightBytes()),
	}
	skip := blestDecide(in, b.Lambda)
	if c.Recorder() != nil {
		b.recordEstimate(c, in, skip, xs)
	}
	if skip {
		b.waits++
		return nil
	}
	return xs
}

// recordEstimate records a decision that reached the blocking estimate.
func (b *BLEST) recordEstimate(c *mptcp.Conn, in blestInput, skip bool, xs *tcp.Subflow) {
	ev := blestEvaluate(in, b.Lambda)
	q := &obs.BlestQuantities{
		RTTF: in.RTTF, RTTS: in.RTTS, CwndF: in.CwndF,
		X: ev.x, Lambda: b.Lambda,
		FreeBytes: in.FreeBytes, OccupiedBytes: ev.occupied,
	}
	chosen, reason := xs, "slow subflow fits the send window"
	if skip {
		chosen, reason = nil, "skip slow subflow: occupying the send window for one slow RTT would block the fast subflow"
	} else if in.RTTF <= 0 || in.RTTS <= 0 {
		reason = "no RTT estimates yet: default policy"
	}
	recordDecision(c, "blest", chosen, skip, reason,
		func(d *obs.SchedDecision) { d.Blest = q })
}

// blestInput carries the quantities of the BLEST blocking estimate.
type blestInput struct {
	RTTF, RTTS float64 // smoothed RTTs, seconds
	CwndF      float64 // fast subflow window, segments
	MSS        float64 // bytes
	FreeBytes  float64 // free connection-level send window
	InflightS  float64 // slow subflow's unacked bytes
}

// blestEval carries the evaluated terms of the blocking estimate.
type blestEval struct {
	x        float64 // bytes the fast subflow could send in one slow RTT
	occupied float64 // slow inflight plus the segment under decision
	skip     bool
}

// blestEvaluate computes the blocking estimate without side effects.
func blestEvaluate(in blestInput, lambda float64) blestEval {
	if in.RTTF <= 0 || in.RTTS <= 0 {
		return blestEval{} // no estimates yet: behave like the default
	}
	rtts := in.RTTS / in.RTTF
	ev := blestEval{
		x:        in.MSS * (in.CwndF + (rtts-1)/2) * rtts,
		occupied: in.InflightS + in.MSS,
	}
	ev.skip = ev.x*lambda > in.FreeBytes-ev.occupied
	return ev
}

// blestDecide returns true when the slow subflow should be skipped.
func blestDecide(in blestInput, lambda float64) bool {
	return blestEvaluate(in, lambda).skip
}
