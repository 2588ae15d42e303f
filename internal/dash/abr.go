package dash

// ABR selects the representation for the next chunk.
type ABR interface {
	// Name identifies the algorithm.
	Name() string
	// Choose returns the ladder index for the next chunk given the
	// current player state.
	Choose(p *Player) int
}

// BBAABR is the buffer-based algorithm of Huang et al. (SIGCOMM'14),
// which the paper's client uses ([12]): a linear map from buffer level to
// rate between a reservoir and a cushion.
type BBAABR struct {
	// ReservoirSec below which the lowest rate is used (default 8).
	ReservoirSec float64
	// CushionSec above which the highest rate is used (default 0.8 of
	// the max buffer at Choose time).
	CushionSec float64
}

// NewBBAABR returns a buffer-based ABR with default thresholds.
func NewBBAABR() *BBAABR { return &BBAABR{ReservoirSec: 8} }

// Name implements ABR.
func (*BBAABR) Name() string { return "bba" }

// Choose implements ABR.
func (a *BBAABR) Choose(p *Player) int {
	buf := p.BufferSeconds()
	cushion := a.CushionSec
	if cushion <= 0 {
		cushion = 0.8 * p.cfg.MaxBufferSec
	}
	ladder := p.cfg.Ladder
	if buf <= a.ReservoirSec {
		return 0
	}
	if buf >= cushion {
		return len(ladder) - 1
	}
	frac := (buf - a.ReservoirSec) / (cushion - a.ReservoirSec)
	lo := ladder[0].Mbps
	hi := ladder[len(ladder)-1].Mbps
	target := lo + frac*(hi-lo)
	return HighestSustainable(ladder, target)
}

// FixedABR always picks the same index; used by tests and by experiments
// that need a constant-rate stream.
type FixedABR struct {
	// Index is the ladder index to pick (clamped).
	Index int
}

// Name implements ABR.
func (*FixedABR) Name() string { return "fixed" }

// Choose implements ABR.
func (a *FixedABR) Choose(p *Player) int {
	i := a.Index
	if i < 0 {
		i = 0
	}
	if i >= len(p.cfg.Ladder) {
		i = len(p.cfg.Ladder) - 1
	}
	return i
}
