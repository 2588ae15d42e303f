// Package cc implements the congestion controllers used by MPTCP
// subflows: uncoupled Reno, the coupled controller (LIA, RFC 6356 /
// Wischik et al. NSDI'11), and OLIA (Khalili et al. CoNEXT'12).
//
// The paper notes (§3.1) that the fast-path under-utilization it analyses
// appears regardless of the congestion controller; exposing all three lets
// the ablation benches confirm the same holds in this reproduction.
package cc

// Flow is the view a controller has of one subflow. Congestion windows
// are measured in segments (possibly fractional between ACKs, as in the
// Linux "cwnd count" accumulator style).
type Flow interface {
	// Cwnd returns the congestion window in segments.
	Cwnd() float64
	// SetCwnd sets the congestion window in segments.
	SetCwnd(w float64)
	// SetSsthresh sets the slow-start threshold in segments.
	SetSsthresh(w float64)
	// SrttSeconds returns the smoothed RTT estimate in seconds, or 0 if
	// no sample has been taken yet.
	SrttSeconds() float64
	// InSlowStart reports whether the flow is below its slow-start
	// threshold.
	InSlowStart() bool
}

// Controller decides window growth and backoff. Slow-start doubling is
// performed by the subflow itself; controllers are consulted only for the
// congestion-avoidance increase and for loss response.
//
// Coupled controllers must see every subflow of a connection, hence
// Register/Unregister.
type Controller interface {
	// name identifies the controller ("reno", "lia", "olia").
	name() string
	// Register adds a flow to the coupled set.
	Register(f Flow)
	// Unregister removes a flow from the coupled set.
	Unregister(f Flow)
	// OnAck is invoked when n segments are newly acknowledged on f while
	// f is in congestion avoidance.
	OnAck(f Flow, n int)
	// OnLoss is invoked on a loss event (fast retransmit or RTO) and
	// performs the multiplicative decrease.
	OnLoss(f Flow)
}

// minCwnd is the floor for any window after a decrease, in segments.
const minCwnd = 2.0

// halve applies the standard multiplicative decrease shared by all three
// controllers.
func halve(f Flow) {
	ss := f.Cwnd() / 2
	if ss < minCwnd {
		ss = minCwnd
	}
	f.SetSsthresh(ss)
	f.SetCwnd(ss)
}
