package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dash"
	"repro/internal/mptcp"
	"repro/internal/results"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/web"
)

// The pooled-network contract: a simulation cell's results depend only
// on its own parameters, never on what previously ran on the worker's
// pooled object graph. These tests run a reference cell per scheduler,
// then interleave deliberately dissimilar "polluter" cells — different
// topology shapes, connection counts, subflow fan-outs, congestion
// controllers, loss and jitter — and require the reference results to
// stay byte-identical. A Reset that misses a field (a stale hysteresis
// flag, a leftover telemetry sample, an un-cleared window) shows up
// here as a drifted fingerprint. The golden fig9 hash test additionally
// pins pooled output against the pre-pooling (fresh-construction)
// capture, so repetition-invariance here plus the golden hash together
// give pooled == fresh.

// isolationFingerprint runs one send-window-bound burst cell and one
// small streaming cell and renders every outcome channel — burst
// durations, per-chunk records, reorder telemetry, counters — into a
// string suitable for exact comparison.
func isolationFingerprint(scheduler string) string {
	var b strings.Builder
	// Bursts through a 64 KiB send window on the paper's hot cell keep
	// the fast path full, so decisions read the scheduler's adaptive
	// state and a stale field shows in the durations and counters. A
	// 90 KiB burst leaves k ≈ 56 segments behind WiFi's first window,
	// where ECF's first wait decision flips with its hysteresis flag
	// (with the seeded RTTs, Eq. 1 holds below k = 50 fresh and below
	// 65 with β applied). It runs first, so it is the cell that draws a
	// scheduler a polluter left in the pool.
	net := core.NewNetwork(core.DefaultPaths(0.3, 8.6))
	cfg := mptcp.DefaultConfig(0)
	cfg.SndBuf = 64 << 10
	conn := net.NewConn(core.ConnOptions{Scheduler: scheduler, Config: &cfg})
	var issue func(i int)
	issue = func(i int) {
		conn.Request(90<<10, func(tr *mptcp.Transfer) {
			fmt.Fprintf(&b, "burst %d %d\n", i, tr.Duration())
			if i < 2 {
				net.Engine().Schedule(time.Second, func() { issue(i + 1) })
			}
		})
	}
	issue(0)
	net.Run(time.Minute)
	fmt.Fprintf(&b, "stalls=%d waits=%d rtx=%d pen=%d\n", conn.WindowStalls(), conn.WaitDecisions(), conn.Reinjections(), conn.Penalties())
	net.Close()

	out := Streaming(0.7, 4.2, scheduler, 12).Run()
	defer out.release()
	fmt.Fprintf(&b, "fast=%.12f ideal=%.12f iw=%d fin=%v\n",
		out.FastFraction, out.IdealFraction, out.IWResets, out.Finished)
	for _, c := range out.Result.Chunks {
		fmt.Fprintf(&b, "chunk %d rep=%s req=%d done=%d tp=%.9f diff=%d both=%v\n",
			c.Index, c.Rep.Name, c.RequestedAt, c.CompletedAt, c.ThroughputMbps, c.LastPacketDiff, c.BothPaths)
	}
	for _, d := range out.OOODelays {
		fmt.Fprintf(&b, "%d,", d)
	}
	return b.String()
}

// polluters are cells chosen to stress every reset path with state as
// unlike the reference cell as possible.
var polluters = []struct {
	name string
	run  func()
}{
	{"six-conn lossy page fetch", func() {
		net := core.NewNetwork([]core.PathSpec{
			{Name: "wifi", RateMbps: 2, BaseRTT: core.WiFiBaseRTT, LossRate: 0.01, Seed: 7},
			{Name: "lte", RateMbps: 6, BaseRTT: core.LTEBaseRTT, LossRate: 0.002, Seed: 11},
		})
		defer net.Close()
		trace.InstallRTTJitter(net, 0, core.WiFiBaseRTT, 0.5, 200*time.Millisecond, 3, time.Minute)
		conns := make([]*mptcp.Conn, 6)
		for i := range conns {
			conns[i] = net.NewConn(core.ConnOptions{Scheduler: "ecf", CongestionControl: "olia"})
		}
		web.FetchPage(net.Engine(), conns, web.PageConfig{
			Objects:   web.CNNPageObjects(5),
			ThinkTime: 10 * time.Millisecond,
		}, nil)
		net.Run(time.Minute)
	}},
	{"three-path lossy blest bulk", func() {
		net := core.NewNetwork([]core.PathSpec{
			{Name: "a", RateMbps: 1, BaseRTT: 10 * time.Millisecond},
			{Name: "b", RateMbps: 3, BaseRTT: 150 * time.Millisecond},
			{Name: "c", RateMbps: 0.5, BaseRTT: 400 * time.Millisecond, LossRate: 0.01, Seed: 2},
		})
		defer net.Close()
		// A 64 KiB send window stalls constantly, leaving BLEST's λ well
		// above its starting value when the cell ends.
		cfg := mptcp.DefaultConfig(0)
		cfg.SndBuf = 64 << 10
		conn := net.NewConn(core.ConnOptions{Scheduler: "blest", CongestionControl: "olia", Config: &cfg})
		conn.Write(3<<20, nil)
		net.Run(time.Minute)
	}},
	{"four-subflow ecf streaming", func() {
		s := Streaming(0.3, 8.6, "ecf", 8)
		s.SubflowsPerPath, s.NoIdleRestart, s.CC = 2, true, "reno"
		s.Run().release()
	}},
	{"variable-bandwidth daps streaming", func() {
		net := core.NewNetwork(core.DefaultPaths(8.6, 0.3))
		defer net.Close()
		trace.Apply(net, trace.RandomScenario(99, 2, 30*time.Second, 5*time.Second, trace.RandomChangeValuesMbps))
		conn := net.NewConn(core.ConnOptions{Scheduler: "daps"})
		dash.NewPlayer(net.Engine(), conn, dash.PlayerConfig{VideoSeconds: 8}).Start(nil)
		net.Run(2 * time.Minute)
	}},
	{"over-budget page fetch", func() {
		// The budget stops the fetch mid-flight, and the cell's failure
		// unwinds through the pooled network's Close.
		defer func() {
			if _, ok := recover().(*results.CellError); !ok {
				panic("the over-budget polluter did not fail with a *results.CellError")
			}
		}()
		pageScenario("blest", 5, 1, 9).run(func(net *core.Network, limit time.Duration) bool {
			net.Engine().SetBudget(100)
			return net.RunQuiet(limit)
		}, nil)
	}},
}

func TestCrossCellIsolation(t *testing.T) {
	schedulers := sched.Names()
	base := make(map[string]string, len(schedulers))
	for _, s := range schedulers {
		base[s] = isolationFingerprint(s)
	}
	for _, p := range polluters {
		p.run()
		for _, s := range schedulers {
			if got := isolationFingerprint(s); got != base[s] {
				t.Errorf("scheduler %s: cell fingerprint drifted after polluter %q — state leaked across cells through the pool", s, p.name)
			}
		}
	}
}
