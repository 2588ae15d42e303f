package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestRandomScenarioDeterministic(t *testing.T) {
	a := RandomScenario(5, 2, 400*time.Second, 40*time.Second, RandomChangeValuesMbps)
	b := RandomScenario(5, 2, 400*time.Second, 40*time.Second, RandomChangeValuesMbps)
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different changes")
		}
	}
}

func TestRandomScenarioShape(t *testing.T) {
	ch := RandomScenario(1, 2, 400*time.Second, 40*time.Second, RandomChangeValuesMbps)
	if len(ch) < 8 || len(ch) > 30 {
		t.Fatalf("change count = %d for 2 paths over 400s at mean 40s, want ~20", len(ch))
	}
	valid := map[float64]bool{}
	for _, v := range RandomChangeValuesMbps {
		valid[v] = true
	}
	for _, c := range ch {
		if c.At < 0 || c.At >= 400*time.Second {
			t.Fatalf("change outside window: %v", c.At)
		}
		if c.PathIdx < 0 || c.PathIdx > 1 {
			t.Fatalf("bad path index %d", c.PathIdx)
		}
		if !valid[c.Mbps] {
			t.Fatalf("value %v not in the §5.3 set", c.Mbps)
		}
	}
}

func TestInitialRates(t *testing.T) {
	r := InitialRates(3, 2, RandomChangeValuesMbps)
	if len(r) != 2 {
		t.Fatalf("len = %d", len(r))
	}
	valid := map[float64]bool{}
	for _, v := range RandomChangeValuesMbps {
		valid[v] = true
	}
	for _, v := range r {
		if !valid[v] {
			t.Fatalf("initial rate %v not in set", v)
		}
	}
}

func TestApplyChangesRates(t *testing.T) {
	net := core.NewNetwork(core.DefaultPaths(8.6, 8.6))
	Apply(net, []BandwidthChange{
		{At: time.Second, PathIdx: 0, Mbps: 1.1},
		{At: 2 * time.Second, PathIdx: 1, Mbps: 4.2},
	})
	net.Run(3 * time.Second)
	if got := net.Paths()[0].Forward().RateBps(); got != 1.1e6 {
		t.Fatalf("wifi rate = %v, want 1.1e6", got)
	}
	if got := net.Paths()[1].Forward().RateBps(); got != 4.2e6 {
		t.Fatalf("lte rate = %v, want 4.2e6", got)
	}
}

func TestWildStreamingRunsSortedLikeFigure22a(t *testing.T) {
	runs := WildStreamingRuns()
	if len(runs) != 9 {
		t.Fatalf("runs = %d, want 9", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].WifiRTT < runs[i-1].WifiRTT {
			t.Fatal("wifi RTTs must ascend across runs (sorted, as in the paper)")
		}
	}
	for _, r := range runs {
		if r.LteRTT != 70*time.Millisecond {
			t.Fatal("LTE RTT should be pinned near 70 ms")
		}
		if len(r.Paths()) != 2 {
			t.Fatal("wild run must produce a 2-path topology")
		}
	}
	// Run 1-2 near-symmetric; run 9 close to a second (paper Fig 22a).
	if runs[0].WifiRTT > 80*time.Millisecond {
		t.Fatal("run 1 should be near-symmetric with LTE")
	}
	if runs[8].WifiRTT < 900*time.Millisecond {
		t.Fatal("run 9 should be ~1 s")
	}
}

func TestWildWebRuns(t *testing.T) {
	runs := WildWebRuns(30)
	if len(runs) != 30 {
		t.Fatalf("runs = %d", len(runs))
	}
	seeds := map[uint64]bool{}
	for _, r := range runs {
		if seeds[r.Seed] {
			t.Fatal("duplicate wild web seed")
		}
		seeds[r.Seed] = true
	}
}

func TestInstallRTTJitterVariesDelay(t *testing.T) {
	net := core.NewNetwork(core.DefaultPaths(8.6, 8.6))
	base := 200 * time.Millisecond
	InstallRTTJitter(net, 0, base, 0.6, 100*time.Millisecond, 9, 5*time.Second)
	seen := map[time.Duration]bool{}
	for i := 1; i <= 40; i++ {
		net.Run(time.Duration(i) * 125 * time.Millisecond)
		seen[net.Paths()[0].Forward().Delay()] = true
	}
	if len(seen) < 5 {
		t.Fatalf("jitter produced only %d distinct delays", len(seen))
	}
	for d := range seen {
		if d <= 0 || d > base {
			t.Fatalf("delay %v outside (0, base]", d)
		}
	}
}

// TestInstallRTTJitterRejectsBadArguments: every argument that would
// make the walk meaningless — or, for a non-positive interval, re-arm it
// at the same instant forever — panics up front naming the value.
func TestInstallRTTJitterRejectsBadArguments(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name      string
		pathIdx   int
		base      time.Duration
		amplitude float64
		interval  time.Duration
		until     time.Duration
		want      string
	}{
		{"negative path", -1, 40 * ms, 0.3, 100 * ms, time.Minute, "path -1 of a 2-path"},
		{"path past the end", 2, 40 * ms, 0.3, 100 * ms, time.Minute, "path 2 of a 2-path"},
		{"zero base", 0, 0, 0.3, 100 * ms, time.Minute, "base 0s"},
		{"zero interval", 0, 40 * ms, 0.3, 0, time.Minute, "interval 0s"},
		{"negative interval", 1, 40 * ms, 0.3, -ms, time.Minute, "interval -1ms"},
		{"zero until", 0, 40 * ms, 0.3, 100 * ms, 0, "until 0s"},
		{"negative amplitude", 0, 40 * ms, -0.1, 100 * ms, time.Minute, "amplitude -0.1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := core.NewNetwork(core.DefaultPaths(8.6, 8.6))
			defer net.Close()
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "trace: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want a trace: message containing %q", msg, tc.want)
				}
				if n := net.Engine().Pending(); n != 0 {
					t.Fatalf("%d events scheduled by a rejected install", n)
				}
			}()
			InstallRTTJitter(net, tc.pathIdx, tc.base, tc.amplitude, tc.interval, 1, tc.until)
		})
	}
	// Zero amplitude is a legal (flat) walk.
	net := core.NewNetwork(core.DefaultPaths(8.6, 8.6))
	defer net.Close()
	InstallRTTJitter(net, 0, 40*ms, 0, 100*ms, 1, time.Second)
	net.RunAll()
}

// TestRTTJitterTicksAreDaemons: an installed walk alone does not keep a
// quiescence-bounded run going, and a horizon run still ticks it through.
func TestRTTJitterTicksAreDaemons(t *testing.T) {
	net := core.NewNetwork(core.DefaultPaths(8.6, 8.6))
	defer net.Close()
	InstallRTTJitter(net, 0, 40*time.Millisecond, 0.3, 100*time.Millisecond, 3, time.Second)
	if !net.RunQuiet(time.Minute) || net.Now() != 0 || net.Engine().Processed() != 0 {
		t.Fatalf("quiet run on an idle network ticked %d times to %v", net.Engine().Processed(), net.Now())
	}
	net.RunAll()
	if got := net.Engine().Processed(); got != 10 {
		t.Fatalf("RunAll fired %d ticks, want the 10 of one second at 100ms", got)
	}
}
