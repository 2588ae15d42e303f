package cc

// OLIA is the "Opportunistic Linked Increases Algorithm" (Khalili et al.,
// CoNEXT'12), the alternative coupled controller the paper mentions
// alongside the default. Per ACK of n segments on path r:
//
//	w_r += n · ( (w_r/rtt_r²) / (Σ_p w_p/rtt_p)²  +  α_r/w_r )
//
// where α_r shifts traffic toward "best" paths (largest ℓ̂²/rtt, with ℓ̂
// the inter-loss transfer estimate) that do not already hold the largest
// window. We estimate ℓ̂ by counting segments acknowledged since the last
// loss on each path, as the kernel implementation does.
type OLIA struct {
	flows []oliaFlow // registration order
}

// oliaFlow is one subflow with its ℓ̂ estimate: segments acked since
// its last loss.
type oliaFlow struct {
	Flow
	acked float64
}

// NewOLIA returns an empty OLIA controller.
func NewOLIA() *OLIA { return &OLIA{} }

// name implements Controller.
func (*OLIA) name() string { return "olia" }

// Register implements Controller.
func (c *OLIA) Register(f Flow) { c.flows = append(c.flows, oliaFlow{Flow: f}) }

// Unregister implements Controller.
func (c *OLIA) Unregister(f Flow) {
	if i := c.find(f); i >= 0 {
		c.flows = append(c.flows[:i], c.flows[i+1:]...)
	}
}

// find returns f's index in registration order, or -1.
func (c *OLIA) find(f Flow) int {
	for i := range c.flows {
		if c.flows[i].Flow == f {
			return i
		}
	}
	return -1
}

func rttOf(f Flow) float64 {
	rtt := f.SrttSeconds()
	if rtt <= 0 {
		rtt = 0.1
	}
	return rtt
}

// quality is the ℓ̂²/rtt path-quality metric.
func (p *oliaFlow) quality() float64 {
	l := p.acked + 1
	return l * l / rttOf(p.Flow)
}

// OnAck implements the OLIA increase. It walks the flows twice and
// allocates nothing: once for the denominator (summed in registration
// order) and the largest window and quality, once to count the sets M
// (max window) and B ("best" quality by ℓ̂²/rtt), where ties include
// every tied flow.
func (c *OLIA) OnAck(f Flow, n int) {
	me := c.find(f)
	if me >= 0 {
		c.flows[me].acked += float64(n)
	}

	var denom, wMax, qMax float64
	for i := range c.flows {
		p := &c.flows[i]
		w := p.Cwnd()
		denom += w / rttOf(p.Flow)
		if w > wMax {
			wMax = w
		}
		if q := p.quality(); q > qMax {
			qMax = q
		}
	}
	if denom <= 0 {
		denom = 1
	}
	w := f.Cwnd()
	if w <= 0 {
		w = 1
	}
	rtt := rttOf(f)
	// Base term: (w/rtt²)/denom², already a per-ACK window increment in
	// segment units.
	base := (w / (rtt * rtt)) / (denom * denom)

	// α moves window from M to the collected best paths B \ M.
	nM, nCollected := 0, 0
	inM, inCollected := false, false
	for i := range c.flows {
		p := &c.flows[i]
		m := p.Cwnd() >= wMax*0.999
		collected := !m && p.quality() >= qMax*0.999
		if m {
			nM++
		}
		if collected {
			nCollected++
		}
		if i == me {
			inM, inCollected = m, collected
		}
	}
	var alpha float64
	if nCollected > 0 {
		nPaths := float64(len(c.flows))
		switch {
		case inCollected:
			alpha = 1 / (nPaths * float64(nCollected))
		case inM:
			alpha = -1 / (nPaths * float64(nM))
		}
	}

	inc := float64(n) * (base + alpha/w)
	if renoInc := float64(n) / w; inc > renoInc {
		inc = renoInc // never more aggressive than Reno
	}
	if inc < 0 {
		inc = 0 // a window never shrinks on an ACK
	}
	f.SetCwnd(w + inc)
}

// OnLoss halves the window and resets the inter-loss estimate.
func (c *OLIA) OnLoss(f Flow) {
	if i := c.find(f); i >= 0 {
		c.flows[i].acked = 0
	}
	halve(f)
}
