package dash

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// playerWithHistory builds a bare player carrying synthetic chunk
// telemetry for ABR unit tests.
func playerWithHistory(buffer float64, throughputs ...float64) *Player {
	p := &Player{cfg: PlayerConfig{Ladder: StandardLadder, MaxBufferSec: 30}}
	p.bufferSec = buffer
	for i, tp := range throughputs {
		p.result.Chunks = append(p.result.Chunks, ChunkRecord{Index: i, ThroughputMbps: tp})
	}
	return p
}

func TestABRNames(t *testing.T) {
	if NewBBAABR().Name() != "bba" || (&FixedABR{}).Name() != "fixed" {
		t.Fatal("ABR name mismatch")
	}
}

func TestBBACushionOverride(t *testing.T) {
	a := NewBBAABR()
	a.CushionSec = 12
	p := playerWithHistory(15)
	if idx := a.Choose(p); idx != len(StandardLadder)-1 {
		t.Fatalf("above explicit cushion picked %d, want top", idx)
	}
}

func TestPlayerBufferDrainsWhilePlaying(t *testing.T) {
	// White-box: BufferSeconds accounts for elapsed playback since the
	// last event.
	net := newTestEngine()
	p := &Player{eng: net, cfg: PlayerConfig{Ladder: StandardLadder, MaxBufferSec: 30}}
	p.bufferSec = 10
	p.playing = true
	p.lastUpdate = net.Now()
	net.RunUntil(net.Now() + 4*time.Second)
	if got := p.BufferSeconds(); got < 5.9 || got > 6.1 {
		t.Fatalf("buffer = %.2f after 4 s playback, want ~6", got)
	}
}

// newTestEngine returns a fresh simulation engine for white-box tests.
func newTestEngine() *sim.Engine { return sim.New() }
