package cc

// Reno is classic uncoupled NewReno-style additive increase /
// multiplicative decrease, applied independently per subflow.
type Reno struct{}

// NewReno returns an uncoupled Reno controller.
func NewReno() *Reno { return &Reno{} }

// name implements Controller.
func (*Reno) name() string { return "reno" }

// Register implements Controller (no coupled state).
func (*Reno) Register(Flow) {}

// Unregister implements Controller.
func (*Reno) Unregister(Flow) {}

// OnAck grows the window by n/cwnd segments (one segment per RTT).
func (*Reno) OnAck(f Flow, n int) {
	w := f.Cwnd()
	if w <= 0 {
		w = 1
	}
	f.SetCwnd(w + float64(n)/w)
}

// OnLoss halves the window.
func (*Reno) OnLoss(f Flow) { halve(f) }
