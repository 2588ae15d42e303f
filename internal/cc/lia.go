package cc

// LIA is the coupled "Linked Increases Algorithm" of RFC 6356, the
// default MPTCP congestion controller in the kernel the paper used.
//
// Per ACK of n segments on subflow i in congestion avoidance:
//
//	w_i += min(alpha·n/w_total, n/w_i)
//
// with
//
//	alpha = w_total · max_r(w_r/rtt_r²) / (Σ_r w_r/rtt_r)²
//
// The coupling is exactly why the paper's CWND resets hurt so much: a
// reset fast subflow drags the aggregate increase rate down (§3.2).
type LIA struct {
	flows []Flow
}

// NewLIA returns an empty coupled controller; subflows join via Register.
func NewLIA() *LIA { return &LIA{} }

// name implements Controller.
func (*LIA) name() string { return "lia" }

// Register implements Controller.
func (c *LIA) Register(f Flow) { c.flows = append(c.flows, f) }

// Unregister implements Controller.
func (c *LIA) Unregister(f Flow) {
	for i, ff := range c.flows {
		if ff == f {
			c.flows = append(c.flows[:i], c.flows[i+1:]...)
			return
		}
	}
}

// alpha computes the RFC 6356 aggressiveness factor.
func (c *LIA) alpha() float64 {
	_, a := c.totals()
	return a
}

// totals walks the flow set once, returning the aggregate window and the
// RFC 6356 alpha. OnAck needs both, and the per-flow Cwnd/SrttSeconds
// interface calls are the dominant cost of the coupled increase on the
// per-ACK hot path, so they are gathered in a single pass. Sums
// accumulate in registration order, exactly as the former separate
// loops did, keeping the floating-point results bit-identical.
func (c *LIA) totals() (total, alpha float64) {
	var maxTerm, denom float64
	for _, f := range c.flows {
		rtt := f.SrttSeconds()
		if rtt <= 0 {
			rtt = 0.1 // no sample yet: assume 100 ms
		}
		w := f.Cwnd()
		total += w
		t := w / (rtt * rtt)
		if t > maxTerm {
			maxTerm = t
		}
		denom += w / rtt
	}
	if denom <= 0 || total <= 0 {
		return total, 1
	}
	return total, total * maxTerm / (denom * denom)
}

// OnAck implements the linked increase.
func (c *LIA) OnAck(f Flow, n int) {
	total, alpha := c.totals()
	w := f.Cwnd()
	if w <= 0 {
		w = 1
	}
	if total <= 0 {
		total = w
	}
	inc := alpha * float64(n) / total
	solo := float64(n) / w
	if solo < inc {
		inc = solo
	}
	f.SetCwnd(w + inc)
}

// OnLoss halves the window, as in standard TCP.
func (*LIA) OnLoss(f Flow) { halve(f) }
