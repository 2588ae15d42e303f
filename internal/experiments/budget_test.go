package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/sim"
)

// catalogCell returns the first quick-scale cell of the named family
// that match accepts — a scenario exactly as the catalog simulates it.
func catalogCell(t *testing.T, family string, match func(Scenario) bool) Scenario {
	t.Helper()
	_, cells, ok := NewPlan(Quick, Catalog...).family(family)
	if !ok {
		t.Fatalf("no quick-scale family %q", family)
	}
	for _, s := range cells {
		if match(s) {
			return s
		}
	}
	t.Fatalf("no cell of %q matches", family)
	return Scenario{}
}

// TestEventBudgetMargin pins the budget's headroom where it is thinnest:
// the densest bulk and stream cells of the quick catalog, and a page and
// a wget of its densest configurations, must each dispatch at most an
// eighth of their budget. A model change that makes a kind eight times denser
// fails here, in tier-1, instead of failing cells mid-sweep. Events are
// counted per network (a wget runs once), as the budget is.
func TestEventBudgetMargin(t *testing.T) {
	wget := catalogCell(t, "fig19", func(s Scenario) bool { return s.Workload.SeedCell == 317 })
	wget.Workload.Runs = 1
	cases := []struct {
		name string
		s    Scenario
	}{
		{"Table 2 bulk, 8.6 Mbps LTE", catalogCell(t, "table2", func(s Scenario) bool {
			return s.Paths[0].Name == "lte" && s.Paths[0].RateMbps == 8.6
		})},
		{"Figure 22 jittered stream, 8.5/8.6 Mbps", catalogCell(t, "fig22", func(s Scenario) bool {
			return s.Scheduler == "minrtt" && s.Paths[0].RateMbps == 8.5 && s.Paths[1].RateMbps == 8.6
		})},
		{"web-browsing page, daps 5/5 Mbps", catalogCell(t, "web-browsing", func(s Scenario) bool {
			return s.Scheduler == "daps" && s.Paths[0].RateMbps == 5 && s.Paths[1].RateMbps == 5
		})},
		{"Figure 19 wget, 1 MiB over 2/8 Mbps", wget},
	}
	for _, tc := range cases {
		p0, _ := sim.TotalEvents()
		tc.s.Run().release()
		p1, _ := sim.TotalEvents()
		events, budget := p1-p0, tc.s.budget()
		t.Logf("%-40s %7d events, budget %10d: margin %.1f×", tc.name, events, budget, float64(budget)/float64(events))
		if events == 0 || events > budget/8 {
			t.Errorf("%s: %d events against a budget of %d, want at most an eighth of it", tc.name, events, budget)
		}
	}
}

// runaway is a web drive whose schedule never runs dry: from 1 s on, a
// zero-delay event reschedules itself, so virtual time stops and the
// network never goes quiet.
func runaway(net *core.Network, limit time.Duration) bool {
	eng := net.Engine()
	var spin func()
	spin = func() { eng.Schedule(0, spin) }
	eng.Schedule(time.Second, spin)
	return net.RunQuiet(limit)
}

// TestRunawayCellFailsAlikeAtAnyWorkerCount: a runaway cell's failure is
// a property of the cell, so the *results.CellError the batch returns
// reads the same at -j 1 and -j 2.
func TestRunawayCellFailsAlikeAtAnyWorkerCount(t *testing.T) {
	s := wgetScenario("ecf", 2, 7, 128<<10, 1, "test-runaway", 42)
	spec := results.Spec{Experiment: "test/runaway", Schema: 1, Scale: "t"}
	var msgs []string
	for _, workers := range []int{1, 2} {
		b := results.NewBatch()
		for i := 0; i < 2; i++ {
			results.AddCell(b, spec, i, 0, func(i int) int {
				if i == 1 {
					s.run(runaway, nil)
				}
				return i
			}, func(int, int) {})
		}
		var ce *results.CellError
		if err := b.Run(&results.Session{}, workers); !errors.As(err, &ce) || ce.Key != spec.Key(1) {
			t.Fatalf("-j %d: Run = %v, want a *results.CellError naming cell 1", workers, err)
		}
		msgs = append(msgs, ce.Error())
	}
	if msgs[0] != msgs[1] || !strings.Contains(msgs[0], "exhausted its event budget") {
		t.Fatalf("want one budget failure at any worker count, got:\n%s\n%s", msgs[0], msgs[1])
	}
}
