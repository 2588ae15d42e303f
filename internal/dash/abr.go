package dash

// ABR selects the representation for the next chunk.
type ABR interface {
	// Choose returns the StandardLadder index for the next chunk given
	// the current player state.
	Choose(p *Player) int
}

// BBA's thresholds: the lowest rate below reservoirSec of buffer, the
// highest above cushionSec (0.8 of the buffer cap).
const (
	reservoirSec = 8
	cushionSec   = 0.8 * maxBufferSec
)

// BBAABR is the buffer-based algorithm of Huang et al. (SIGCOMM'14),
// which the paper's client uses ([12]): a linear map from buffer level to
// rate between a reservoir and a cushion.
type BBAABR struct{}

// NewBBAABR returns a buffer-based ABR.
func NewBBAABR() *BBAABR { return &BBAABR{} }

// Choose implements ABR.
func (*BBAABR) Choose(p *Player) int {
	buf := p.BufferSeconds()
	ladder := StandardLadder
	if buf <= reservoirSec {
		return 0
	}
	if buf >= cushionSec {
		return len(ladder) - 1
	}
	frac := (buf - reservoirSec) / (cushionSec - reservoirSec)
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

// Choose implements ABR.
func (a *FixedABR) Choose(*Player) int {
	return max(0, min(a.Index, len(StandardLadder)-1))
}
