package sched

import (
	"math"
	"time"

	"repro/internal/mptcp"
	"repro/internal/obs"
	"repro/internal/tcp"
)

// ECF is the paper's contribution (§4, Algorithm 1): Earliest Completion
// First. When the fastest subflow x_f has no window space, the default
// scheduler would immediately fall back to the second-fastest available
// subflow x_s. ECF instead asks whether waiting for x_f finishes the
// pending backlog sooner:
//
//	(1 + k/CWND_f)·RTT_f < (1 + waiting·β)·(RTT_s + δ)    [wait is faster]
//	k/CWND_s · RTT_s ≥ 2·RTT_f + δ                         [guard]
//
// with k the unscheduled backlog, δ = max(σ_f, σ_s) compensating RTT
// variability, and β hysteresis against flapping between the two states.
// When both inequalities hold, ECF sends nothing and waits for x_f.
type ECF struct {
	// Beta is the hysteresis factor (paper value 0.25).
	Beta float64
	// UseDelta enables the δ variability margin. Disabled only by the
	// ablation benches.
	UseDelta bool
	// UseGuard enables the second inequality. Disabled only by the
	// ablation benches.
	UseGuard bool
	// SlowStartAware refines the fast-path drain estimate when x_f is in
	// slow start: a doubling window drains k in ~log2(1+k/w) RTTs, not
	// k/w. The paper notes (§4) that ECF's congestion-avoidance
	// assumption "can cause incorrect estimations ... during the
	// slow-start phase" but argues the effect is negligible; we found the
	// refinement helps ramp-heavy streaming slightly yet makes ECF wait
	// for thin low-RTT paths on short fresh-connection transfers, so —
	// like the paper — we leave the estimate unrefined by default. The
	// ablation bench measures both settings.
	SlowStartAware bool

	waiting bool
	waits   int64
}

// NewECF returns an ECF scheduler with the paper's parameters (β = 0.25,
// both inequalities active).
func NewECF() *ECF {
	return &ECF{Beta: 0.25, UseDelta: true, UseGuard: true}
}

// Name implements mptcp.Scheduler.
func (*ECF) Name() string { return "ecf" }

// Reset implements mptcp.Resettable: the hysteresis state and wait
// counter clear; the algorithm parameters (Beta, UseDelta, UseGuard,
// SlowStartAware) are construction-time configuration and persist.
func (e *ECF) Reset() {
	e.waiting = false
	e.waits = 0
}

// Waits reports how many Select calls chose to wait for the fast subflow.
func (e *ECF) Waits() int64 { return e.waits }

// Select implements mptcp.Scheduler (Algorithm 1).
func (e *ECF) Select(c *mptcp.Conn) *tcp.Subflow {
	subflows := c.Subflows()
	xf := fastestOverall(subflows)
	if xf == nil {
		if c.Recorder() != nil {
			recordDecision(c, "ecf", nil, false, "no subflows", nil)
		}
		return nil
	}
	if xf.CanSend() {
		if c.Recorder() != nil {
			recordDecision(c, "ecf", xf, false, "fast subflow has window space", nil)
		}
		return xf
	}
	// x_f is full: candidate per the default policy.
	xs := fastestAvailable(subflows)
	if xs == nil {
		if c.Recorder() != nil {
			recordDecision(c, "ecf", nil, false, "fast subflow full, no alternative with window space", nil)
		}
		return nil
	}

	// k: unscheduled backlog in segments (at least the one segment that
	// triggered this decision).
	k := float64(c.UnsentBytes()) / tcp.MSS
	var delta float64
	if e.UseDelta {
		delta = maxDuration(xf.RTTStdDev(), xs.RTTStdDev()).Seconds()
	}
	in := ecfInput{
		K:               k,
		CwndF:           xf.CwndSegments(),
		CwndS:           xs.CwndSegments(),
		RTTF:            effSrtt(xf).Seconds(),
		RTTS:            effSrtt(xs).Seconds(),
		Delta:           delta,
		FastInSlowStart: e.SlowStartAware && xf.InSlowStart(),
	}
	hysteresis := e.waiting
	wait := ecfDecide(in, &e.waiting, e.Beta, e.UseGuard)
	if c.Recorder() != nil {
		e.recordEstimate(c, in, hysteresis, wait, xs)
	}
	if wait {
		e.waits++
		return nil
	}
	return xs
}

// recordEstimate records a decision that reached the Eq. 1–2 estimate,
// re-evaluating the inequalities under the pre-decision hysteresis
// state so the recorded quantities are exactly what ecfDecide compared.
func (e *ECF) recordEstimate(c *mptcp.Conn, in ecfInput, hysteresis, wait bool, xs *tcp.Subflow) {
	ev := ecfEvaluate(in, hysteresis, e.Beta, e.UseGuard)
	q := &obs.EcfQuantities{
		K: in.K, CwndF: in.CwndF, CwndS: in.CwndS,
		RTTF: in.RTTF, RTTS: in.RTTS, Delta: in.Delta,
		N: ev.n, Beta: e.Beta, Hysteresis: hysteresis,
		LHS: ev.lhs, RHS: ev.rhs, WaitTest: ev.waitTest,
		GuardLHS: ev.guardLHS, GuardRHS: ev.guardRHS,
		GuardOK: ev.guardOK, GuardUsed: e.UseGuard,
	}
	var chosen *tcp.Subflow
	reason := "wait for fast subflow (Eq. 1 holds"
	switch {
	case wait && e.UseGuard:
		reason += ", Eq. 2 holds)"
	case wait:
		reason += ", Eq. 2 disabled)"
	case ev.waitTest:
		chosen, reason = xs, "Eq. 1 holds but Eq. 2 fails: slow subflow drains the backlog fast enough"
	default:
		chosen, reason = xs, "using slow subflow finishes sooner (Eq. 1 fails)"
	}
	recordDecision(c, "ecf", chosen, wait, reason,
		func(d *obs.SchedDecision) { d.Ecf = q })
}

// ecfInput carries the quantities of Algorithm 1 in segment/second units.
type ecfInput struct {
	K            float64 // unscheduled backlog, segments
	CwndF, CwndS float64 // windows, segments
	RTTF, RTTS   float64 // smoothed RTTs, seconds
	Delta        float64 // max(σ_f, σ_s), seconds
	// FastInSlowStart switches the drain estimate for x_f to the
	// doubling-window form.
	FastInSlowStart bool
}

// ecfEval carries the evaluated terms of Algorithm 1's inequalities —
// what ecfDecide compares and what decision traces record.
type ecfEval struct {
	n, lhs, rhs        float64 // Eq. 1: lhs < rhs means waiting wins
	waitTest           bool
	guardLHS, guardRHS float64 // Eq. 2: guardLHS >= guardRHS confirms
	guardOK            bool
	wait               bool // the verdict under the given guard setting
}

// ecfEvaluate computes Algorithm 1's inequalities under the given
// hysteresis state, without side effects.
func ecfEvaluate(in ecfInput, waiting bool, beta float64, useGuard bool) ecfEval {
	k := in.K
	if k < 1 {
		k = 1
	}
	cwndF := in.CwndF
	if cwndF < 1 {
		cwndF = 1
	}
	cwndS := in.CwndS
	if cwndS < 1 {
		cwndS = 1
	}
	n := 1 + k/cwndF
	if in.FastInSlowStart {
		// Doubling window: w + 2w + 4w + ... covers k within
		// log2(1 + k/w) round trips.
		n = 1 + math.Log2(1+k/cwndF)
	}
	b := 0.0
	if waiting {
		b = beta
	}
	ev := ecfEval{
		n:        n,
		lhs:      n * in.RTTF,
		rhs:      (1 + b) * (in.RTTS + in.Delta),
		guardLHS: k / cwndS * in.RTTS,
		guardRHS: 2*in.RTTF + in.Delta,
	}
	ev.waitTest = ev.lhs < ev.rhs
	ev.guardOK = ev.guardLHS >= ev.guardRHS
	// Waiting for x_f completes sooner than using x_s now (Eq. 1) —
	// unless x_s can drain the backlog faster than two fast-path round
	// trips (Eq. 2, the guard).
	ev.wait = ev.waitTest && (!useGuard || ev.guardOK)
	return ev
}

// ecfDecide evaluates Algorithm 1 and updates the hysteresis state in
// place. It returns true when the scheduler should send nothing and wait
// for the fast subflow. A guard-rejected wait leaves the hysteresis
// state untouched: Eq. 1 still held, so the next decision keeps the
// waiting bias.
func ecfDecide(in ecfInput, waiting *bool, beta float64, useGuard bool) bool {
	ev := ecfEvaluate(in, *waiting, beta, useGuard)
	if ev.wait {
		*waiting = true
		return true
	}
	if !ev.waitTest {
		*waiting = false
	}
	return false
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
