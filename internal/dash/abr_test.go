package dash

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPlayerBufferDrainsWhilePlaying(t *testing.T) {
	// White-box: bufferSeconds accounts for elapsed playback since the
	// last event.
	net := newTestEngine()
	p := &Player{eng: net}
	p.bufferSec = 10
	p.playing = true
	p.lastUpdate = net.Now()
	net.RunUntil(net.Now() + 4*time.Second)
	if got := p.bufferSeconds(); got < 5.9 || got > 6.1 {
		t.Fatalf("buffer = %.2f after 4 s playback, want ~6", got)
	}
}

// newTestEngine returns a fresh simulation engine for white-box tests.
func newTestEngine() *sim.Engine { return sim.New() }
