package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/results"
	"repro/internal/sim"
	"repro/internal/trace"
)

// cellProbe is a webRun that also records what the network had done when
// the run ended — read before the scenario closes the network.
type cellProbe struct {
	// horizon selects the reference drive: Run to the limit, as web cells
	// did before they ended at quiescence.
	horizon bool

	end                  time.Duration
	processed, coalesced uint64
	links                []netsim.LinkStats
}

func (p *cellProbe) run(net *core.Network, limit time.Duration) bool {
	quiet := true
	if p.horizon {
		net.Run(limit)
	} else {
		quiet = net.RunQuiet(limit)
	}
	p.end = net.Now()
	p.processed, p.coalesced = net.Engine().Processed(), net.Engine().Coalesced()
	for _, path := range net.Paths() {
		p.links = append(p.links, path.Forward().Stats(), path.Reverse().Stats())
	}
	return quiet
}

// jitterTicksSkipped is how many ticks of one installed RTT-jitter walk
// (every interval from 0 to before until) a run that went quiet at end
// left unfired.
func jitterTicksSkipped(end, interval, until time.Duration) uint64 {
	total := (until + interval - 1) / interval
	fired := end/interval + 1
	return uint64(total - fired)
}

// checkSameNetwork requires the quiescent and the horizon run of one cell
// to have moved the same packets through the same inline claims, and to
// differ in queue dispatches by exactly the skipped jitter ticks. That is
// the invariant that makes "only daemons pending" mean "network quiet":
// every in-flight packet, paced segment, armed RTO and think gap is
// covered by a live pending event.
func checkSameNetwork(t *testing.T, cell string, quiet, horizon *cellProbe, skipped uint64) {
	t.Helper()
	if !reflect.DeepEqual(quiet.links, horizon.links) {
		t.Fatalf("%s: per-link counters differ:\nquiescent %+v\nhorizon   %+v", cell, quiet.links, horizon.links)
	}
	if quiet.coalesced != horizon.coalesced || horizon.processed-quiet.processed != skipped {
		t.Fatalf("%s: quiescent run %d dispatches + %d claims to %v, horizon run %d + %d; want equal claims and a gap of the %d skipped jitter ticks",
			cell, quiet.processed, quiet.coalesced, quiet.end, horizon.processed, horizon.coalesced, skipped)
	}
	if quiet.end >= horizon.end {
		t.Fatalf("%s: quiescent run ended at %v, horizon run at %v", cell, quiet.end, horizon.end)
	}
}

func TestWgetEndsAtQuiescenceUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	scheds := []string{"minrtt", "daps", "blest", "ecf"}
	for i := 0; i < 16; i++ {
		s := scheds[rng.Intn(len(scheds))]
		wifi := trace.WebBandwidthsMbps[rng.Intn(len(trace.WebBandwidthsMbps))]
		lte := trace.WebBandwidthsMbps[rng.Intn(len(trace.WebBandwidthsMbps))]
		size := wgetSizes[rng.Intn(len(wgetSizes))]
		seedCell := rng.Int()
		cell := fmt.Sprintf("wget %d bytes, %s, %g/%g Mbps, seed cell %d", size, s, wifi, lte, seedCell)
		sc := wgetScenario(s, wifi, lte, size, 1, "test-quiescence", seedCell)

		quiet, horizon := &cellProbe{}, &cellProbe{horizon: true}
		got := sc.run(quiet.run, nil).Completions[0]
		want := sc.run(horizon.run, nil).Completions[0]
		if got != want || got <= 0 {
			t.Fatalf("%s: completion time %v at quiescence, %v at the horizon", cell, got, want)
		}
		// Two walks, every 100 ms for the first minute.
		checkSameNetwork(t, cell, quiet, horizon, 2*jitterTicksSkipped(quiet.end, 100*time.Millisecond, time.Minute))
	}
}

func TestPageFetchesEndAtQuiescenceUnchanged(t *testing.T) {
	samePage := func(t *testing.T, cell string, s Scenario, quiet, horizon *cellProbe) {
		t.Helper()
		got, want := s.run(quiet.run, nil), s.run(horizon.run, nil)
		defer got.Release()
		defer want.Release()
		if len(got.Completions) != 107 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: page outcome differs between the quiescent and the horizon run (%d and %d objects)", cell, len(got.Completions), len(want.Completions))
		}
	}
	t.Run("fetchCNNPage", func(t *testing.T) {
		quiet, horizon := &cellProbe{}, &cellProbe{horizon: true}
		samePage(t, "CNN page", pageScenario("ecf", 1, 10, 7), quiet, horizon)
		checkSameNetwork(t, "CNN page", quiet, horizon, 0) // no jitter installed
	})
	t.Run("wildPage", func(t *testing.T) {
		for _, run := range trace.WildWebRuns(3) {
			cell := fmt.Sprintf("wild page run %d", run.Index)
			quiet, horizon := &cellProbe{}, &cellProbe{horizon: true}
			samePage(t, cell, wildPageScenario(run, "minrtt"), quiet, horizon)
			// Two walks, every 500 ms for ten minutes.
			checkSameNetwork(t, cell, quiet, horizon, 2*jitterTicksSkipped(quiet.end, 500*time.Millisecond, 10*time.Minute))
		}
	})
}

// TestWebCellThatNeverCompletesPanics: a web cell whose transfer cannot
// finish must fail with a *results.CellError naming its scenario, not
// report a zero completion time or an empty page.
func TestWebCellThatNeverCompletesPanics(t *testing.T) {
	blackhole := func(net *core.Network, limit time.Duration) bool {
		for _, p := range net.Paths() {
			p.Forward().SetLossRate(1)
			p.Reverse().SetLossRate(1)
		}
		return net.RunQuiet(limit)
	}
	idle := func(*core.Network, time.Duration) bool { return true }
	cases := []struct {
		name string
		cell func()
		want []string
	}{
		{"wget on a 100%-loss network", func() { wgetScenario("ecf", 2, 7, 128<<10, 1, "test-panic", 99).run(blackhole, nil) },
			[]string{"under ecf never completed", "5m0s cap", "RateMbps:2 ", "RateMbps:7 ", "Bytes:131072 ", "SeedCell:99"}},
		{"wget whose network goes quiet early", func() { wgetScenario("minrtt", 1, 1, 1<<20, 1, "test-panic", 5).run(idle, nil) },
			[]string{"under minrtt never completed", "went quiet at 0s", "Bytes:1048576 ", "SeedCell:5"}},
		{"wget whose schedule never runs dry", func() { wgetScenario("ecf", 2, 7, 128<<10, 1, "test-panic", 42).run(runaway, nil) },
			[]string{"under ecf exhausted its event budget", "6000000 dispatches by 1s", "budget 6000000 ", "RateMbps:7 ", "SeedCell:42"}},
		{"page fetch on a 100%-loss network", func() { pageScenario("blest", 5, 5, 3).run(blackhole, nil) },
			[]string{"under blest never completed", "10m0s cap", "RateMbps:5 ", "PageSeed:3 "}},
		{"wild page fetch on a 100%-loss network", func() { wildPageScenario(trace.WildWebRuns(1)[0], "ecf").run(blackhole, nil) },
			[]string{"under ecf never completed", "PageSeed:1000 ", "10m0s cap"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				ce, ok := recover().(*results.CellError)
				if !ok {
					t.Fatal("the cell did not fail with a *results.CellError")
				}
				msg := ce.Err.Error()
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Fatalf("panic %q does not mention %q", msg, w)
					}
				}
			}()
			tc.cell()
			t.Fatal("the cell returned a result")
		})
	}
}

// TestWebFamiliesEventsPerPacketCeiling keeps the jitter-driven web
// families at the event cost of the packets they move: ~1.30–1.46
// dispatches and claims per delivered packet at quick scale (they were
// 3.0 and 1.84 while idle RTT-jitter ticks ran to the horizon).
func TestWebFamiliesEventsPerPacketCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates quick fig18, fig19 and fig23")
	}
	const ceiling = 1.5
	for _, name := range []string{"fig18", "fig19", "fig23"} {
		e, ok := ByName(name)
		if !ok {
			t.Fatalf("%s is not in the catalog", name)
		}
		p0, c0 := sim.TotalEvents()
		d0 := netsim.TotalDelivered()
		if err := NewPlan(Quick, e).Run(0, nil, nil); err != nil {
			t.Fatal(err)
		}
		p1, c1 := sim.TotalEvents()
		events, pkts := (p1-p0)+(c1-c0), netsim.TotalDelivered()-d0
		if pkts == 0 || float64(events)/float64(pkts) > ceiling {
			t.Errorf("%s: %d events for %d delivered packets = %.2f events/pkt, ceiling %.1f", e.Name, events, pkts, float64(events)/float64(pkts), ceiling)
		}
	}
}
