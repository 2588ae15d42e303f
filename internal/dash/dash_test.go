package dash

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

func TestStandardLadderMatchesTable1(t *testing.T) {
	want := map[string]float64{
		"144p": 0.26, "240p": 0.64, "360p": 1.00,
		"480p": 1.60, "760p": 4.14, "1080p": 8.47,
	}
	if len(StandardLadder) != 6 {
		t.Fatalf("ladder size = %d, want 6", len(StandardLadder))
	}
	for _, r := range StandardLadder {
		if want[r.Name] != r.Mbps {
			t.Fatalf("%s = %v Mbps, want %v", r.Name, r.Mbps, want[r.Name])
		}
	}
	for i := 1; i < len(StandardLadder); i++ {
		if StandardLadder[i].Mbps <= StandardLadder[i-1].Mbps {
			t.Fatal("ladder must be ascending")
		}
	}
}

func TestIdealBitrate(t *testing.T) {
	// Paper example: 8.6+8.6 aggregate → ideal 8.47 (the 1080p cap);
	// 0.3+8.6 → ideal 8.9 capped at 8.47? No: 8.9 > 8.47 so cap.
	if got := IdealBitrateMbps(17.2, StandardLadder); got != 8.47 {
		t.Fatalf("ideal(17.2) = %v, want 8.47", got)
	}
	if got := IdealBitrateMbps(2.0, StandardLadder); got != 2.0 {
		t.Fatalf("ideal(2.0) = %v, want 2.0", got)
	}
}

func TestHighestSustainable(t *testing.T) {
	if i := highestSustainable(StandardLadder, 0.1); i != 0 {
		t.Fatalf("0.1 Mbps → index %d, want 0", i)
	}
	if i := highestSustainable(StandardLadder, 1.7); i != 3 {
		t.Fatalf("1.7 Mbps → index %d, want 3 (480p)", i)
	}
	if i := highestSustainable(StandardLadder, 100); i != 5 {
		t.Fatalf("100 Mbps → index %d, want 5", i)
	}
}

func TestChunkBytes(t *testing.T) {
	// 1080p, 5 s: 8.47 Mbps ⇒ 8.47e6*5/8 bytes.
	if got := chunkBytes(StandardLadder[5], 5); got != int64(8.47e6*5/8) {
		t.Fatalf("chunk bytes = %d", got)
	}
	if got := chunkBytes(Representation{Mbps: 0}, 5); got != 1 {
		t.Fatalf("degenerate chunk = %d, want 1", got)
	}
}

func TestFixedABRClamps(t *testing.T) {
	p := &Player{}
	if i := (&fixedABR{index: -3}).choose(p); i != 0 {
		t.Fatalf("clamp low = %d", i)
	}
	if i := (&fixedABR{index: 99}).choose(p); i != 5 {
		t.Fatalf("clamp high = %d", i)
	}
}

func TestBBAABRRegions(t *testing.T) {
	p := &Player{}
	a := &BBAABR{}
	p.bufferSec = 2 // below reservoir
	if i := a.choose(p); i != 0 {
		t.Fatalf("reservoir region picked %d, want 0", i)
	}
	p.bufferSec = 29 // above cushion (24)
	if i := a.choose(p); i != 5 {
		t.Fatalf("cushion region picked %d, want 5", i)
	}
	p.bufferSec = 16 // mid: monotone between
	mid := a.choose(p)
	if mid <= 0 || mid >= 5 {
		t.Fatalf("mid region picked %d, want interior", mid)
	}
}

func TestBBAABRMonotoneInBuffer(t *testing.T) {
	if err := quick.Check(func(b1, b2 uint8) bool {
		lo, hi := float64(b1%31), float64(b2%31)
		if lo > hi {
			lo, hi = hi, lo
		}
		p := &Player{}
		a := &BBAABR{}
		p.bufferSec = lo
		iLo := a.choose(p)
		p.bufferSec = hi
		iHi := a.choose(p)
		return iLo <= iHi
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// stream runs a full session on a two-path network and returns the result.
func stream(t *testing.T, schedName string, wifiMbps, lteMbps float64, cfg PlayerConfig) *Result {
	t.Helper()
	net := core.NewNetwork(core.DefaultPaths(wifiMbps, lteMbps))
	conn := net.NewConn(core.ConnOptions{Scheduler: schedName})
	p := NewPlayer(net.Engine(), conn, cfg)
	var out *Result
	p.Start(func(r *Result) { out = r })
	net.RunAll()
	if out == nil {
		t.Fatalf("stream(%s) did not finish", schedName)
	}
	return out
}

func TestStreamingSessionCompletes(t *testing.T) {
	res := stream(t, "minrtt", 4.2, 4.2, PlayerConfig{VideoSeconds: 60})
	if len(res.Chunks) != 12 {
		t.Fatalf("chunks = %d, want 12", len(res.Chunks))
	}
	if res.AvgBitrateMbps() <= 0 {
		t.Fatal("no bitrate recorded")
	}
	if len(res.DownloadTrace) != len(res.Chunks) {
		t.Fatal("download trace should have one point per chunk")
	}
}

func TestHighBandwidthReachesTopRate(t *testing.T) {
	res := stream(t, "ecf", 8.6, 8.6, PlayerConfig{VideoSeconds: 120})
	// Skip the adaptation warm-up: the steady tail should be 1080p.
	tail := res.Chunks[len(res.Chunks)/2:]
	top := 0
	for _, c := range tail {
		if c.Rep.Name == "1080p" {
			top++
		}
	}
	if frac := float64(top) / float64(len(tail)); frac < 0.8 {
		t.Fatalf("1080p fraction in steady tail = %.2f, want >= 0.8", frac)
	}
}

func TestLowBandwidthStaysLow(t *testing.T) {
	res := stream(t, "minrtt", 0.3, 0.3, PlayerConfig{VideoSeconds: 60})
	if br := res.AvgBitrateMbps(); br > 0.7 {
		t.Fatalf("avg bitrate %v Mbps on 0.6 Mbps aggregate, want <= 0.7", br)
	}
}

func TestOnOffPatternHasGaps(t *testing.T) {
	// With ample bandwidth the player must exhibit OFF periods: gaps of
	// roughly the chunk duration between steady-state requests (Figure 1).
	res := stream(t, "ecf", 8.6, 8.6, PlayerConfig{VideoSeconds: 120})
	var gaps int
	for i := len(res.Chunks) / 2; i < len(res.Chunks); i++ {
		gap := res.Chunks[i].RequestedAt - res.Chunks[i-1].CompletedAt
		if gap > time.Second {
			gaps++
		}
	}
	if gaps == 0 {
		t.Fatal("no OFF periods observed in steady state")
	}
}

func TestECFBitrateAtLeastDefaultHeterogeneous(t *testing.T) {
	cfg := PlayerConfig{VideoSeconds: 120}
	def := stream(t, "minrtt", 0.3, 8.6, cfg)
	ecf := stream(t, "ecf", 0.3, 8.6, cfg)
	if ecf.AvgBitrateMbps() < def.AvgBitrateMbps() {
		t.Fatalf("ecf bitrate %.2f < default %.2f under heterogeneity",
			ecf.AvgBitrateMbps(), def.AvgBitrateMbps())
	}
}

func TestPlayerStateString(t *testing.T) {
	for s, want := range map[playerState]string{
		initialBuffering: "initial-buffering",
		steady:           "steady",
		rebuffering:      "rebuffering",
		finished:         "finished",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestResultAggregates(t *testing.T) {
	r := &Result{Chunks: []ChunkRecord{
		{Rep: Representation{Mbps: 2}, ThroughputMbps: 4, BothPaths: true, LastPacketDiff: time.Second},
		{Rep: Representation{Mbps: 4}, ThroughputMbps: 8},
	}}
	if r.AvgBitrateMbps() != 3 {
		t.Fatalf("avg bitrate = %v", r.AvgBitrateMbps())
	}
	if r.AvgThroughputMbps() != 6 {
		t.Fatalf("avg throughput = %v", r.AvgThroughputMbps())
	}
	if len(r.LastPacketDiffs()) != 1 {
		t.Fatal("LastPacketDiffs should include only both-path chunks")
	}
	if got := r.ChunkThroughputsMbps(); len(got) != 2 || got[1] != 8 {
		t.Fatalf("chunk throughputs = %v", got)
	}
}

// Regression: a player on a starved connection must stall, count a
// rebuffer, and still finish.
func TestRebufferingOnStarvedLink(t *testing.T) {
	net := core.NewNetwork(core.DefaultPaths(0.3, 0.3))
	conn := net.NewConn(core.ConnOptions{Scheduler: "minrtt"})
	// Force high-rate chunks over a starved link: fixed 480p (1.6 Mbps)
	// over 0.6 Mbps aggregate.
	p := NewPlayer(net.Engine(), conn, PlayerConfig{
		VideoSeconds: 60,
		abr:          &fixedABR{index: 3},
	})
	var out *Result
	p.Start(func(r *Result) { out = r })
	net.RunAll()
	if out == nil {
		t.Fatal("did not finish")
	}
	if out.Rebuffers == 0 || out.StallTime == 0 {
		t.Fatalf("rebuffers=%d stall=%v, want stalls on a starved link", out.Rebuffers, out.StallTime)
	}
}

// fixedABR always picks the same ladder index (clamped): the constant
// rate that TestRebufferingOnStarvedLink forces over a starved link.
type fixedABR struct {
	index int
}

func (a *fixedABR) choose(*Player) int {
	return max(0, min(a.index, len(StandardLadder)-1))
}
