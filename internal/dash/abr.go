package dash

// abr selects the representation for the next chunk. The player runs
// BBAABR; a test substitutes a fixed choice.
type abr interface {
	// choose returns the StandardLadder index for the next chunk given
	// the current player state.
	choose(p *Player) int
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

// choose implements abr.
func (*BBAABR) choose(p *Player) int {
	buf := p.bufferSeconds()
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
	return highestSustainable(ladder, target)
}
