package obs

import "time"

// SchedCandidate is one subflow as the scheduler saw it at decision
// time.
type SchedCandidate struct {
	Name string
	// Srtt and StdDev are the RTT estimate and its mean deviation
	// (ECF's σ); zero before the first sample.
	Srtt   time.Duration
	StdDev time.Duration
	// Cwnd is the congestion window in segments; Inflight the unacked
	// segments; Avail the remaining window space in segments.
	Cwnd     float64
	Inflight int
	Avail    int
	CanSend  bool
	// Score is scheduler-specific: the DAPS deficit credit after the
	// decision; unused by the other schedulers.
	Score float64
}

// EcfQuantities are the terms of the paper's Eq. 1–2 (Algorithm 1) as
// ECF evaluated them for one decision, in segment/second units.
type EcfQuantities struct {
	// K is the unscheduled backlog in segments; CwndF/CwndS the fast
	// and second-fastest windows; RTTF/RTTS their smoothed RTTs; Delta
	// the max(σ_f, σ_s) variability margin.
	K     float64
	CwndF float64
	CwndS float64
	RTTF  float64
	RTTS  float64
	Delta float64
	// N is the fast-path drain estimate in round trips (1 + k/cwnd_f,
	// or the doubling-window form in slow start); Beta the hysteresis
	// factor; Hysteresis whether the waiting state was set entering the
	// decision.
	N          float64
	Beta       float64
	Hysteresis bool
	// LHS/RHS and WaitTest are Eq. 1: n·RTT_f < (1+β·waiting)·(RTT_s+δ).
	LHS      float64
	RHS      float64
	WaitTest bool
	// GuardLHS/GuardRHS and GuardOK are Eq. 2:
	// k/cwnd_s·RTT_s ≥ 2·RTT_f+δ; GuardUsed is false for the ablation
	// that disables the guard.
	GuardLHS  float64
	GuardRHS  float64
	GuardOK   bool
	GuardUsed bool
}

// BlestQuantities are the terms of BLEST's blocking estimate for one
// decision.
type BlestQuantities struct {
	RTTF  float64
	RTTS  float64
	CwndF float64
	// X is the bytes the fast subflow could send during one slow RTT;
	// Lambda the adaptive correction factor; FreeBytes the free
	// connection-level send window; OccupiedBytes the slow subflow's
	// inflight plus the segment under decision.
	X             float64
	Lambda        float64
	FreeBytes     float64
	OccupiedBytes float64
}

// SchedDecision is one scheduling choice: the candidate set, the
// quantities compared, and the verdict.
type SchedDecision struct {
	// At is the virtual time of the decision; Scheduler the registry
	// name; Conn the connection ID.
	At        time.Duration
	Scheduler string
	Conn      int
	// HeadDSN is the data-level sequence number of the segment under
	// decision (-1 when the backlog is empty); Transfer the admission
	// sequence number of the transfer that segment belongs to (-1 when
	// unknown) — the key the per-transfer decision log groups by.
	HeadDSN  int64
	Transfer int64
	// BacklogBytes is the unscheduled backlog.
	BacklogBytes int64
	Candidates   []SchedCandidate
	// Chosen is the selected subflow's name ("" when the scheduler
	// returned nothing); Wait marks a deliberate ECF/BLEST wait for the
	// fast path (as opposed to having no sendable subflow at all).
	Chosen string
	Wait   bool
	// Reason is a short human-readable verdict.
	Reason string
	// Ecf/Blest carry the scheduler-specific quantities when the
	// decision reached the respective estimate (nil otherwise).
	Ecf   *EcfQuantities
	Blest *BlestQuantities
}
