package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/mptcp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// rig builds a two-path connection with the given scheduler.
type rig struct {
	eng  *sim.Engine
	conn *mptcp.Conn
	wifi *netsim.Path
	lte  *netsim.Path
}

func newRig(t *testing.T, s mptcp.Scheduler, wifiMbps, lteMbps float64) *rig {
	t.Helper()
	eng := sim.New()
	wifi := netsim.NewPath(eng, netsim.PathConfig{Name: "wifi", RateBps: wifiMbps * 1e6, Delay: 10 * time.Millisecond, QueueBytes: 48 << 10})
	lte := netsim.NewPath(eng, netsim.PathConfig{Name: "lte", RateBps: lteMbps * 1e6, Delay: 40 * time.Millisecond, QueueBytes: 48 << 10})
	conn := mptcp.NewConn(eng, mptcp.DefaultConfig(0), cc.NewLIA())
	conn.SetScheduler(s)
	for _, p := range []*netsim.Path{wifi, lte} {
		fwd, rev := netsim.NewDemux(), netsim.NewDemux()
		p.SetForwardReceiver(fwd.OnPacket)
		p.SetReverseReceiver(rev.OnPacket)
		conn.AddSubflow(p.Name(), p, fwd, rev)
	}
	return &rig{eng: eng, conn: conn, wifi: wifi, lte: lte}
}

// runBursty models the multi-download pattern of §3: repeated requests
// separated by 1 s OFF periods, returning the sum of burst durations.
func runBursty(r *rig, bursts int) time.Duration {
	return runBurstySized(r, bursts, 300_000)
}

// runBurstySized is runBursty with a configurable burst size. Larger
// bursts (~1 MB, a 480p chunk) are where the schedulers' tail decisions
// separate most clearly.
func runBurstySized(r *rig, bursts int, size int64) (sumDur time.Duration) {
	var durations []time.Duration
	var issue func(i int)
	issue = func(i int) {
		if i >= bursts {
			return
		}
		r.conn.Request(size, func(tr *mptcp.Transfer) {
			durations = append(durations, tr.Duration())
			r.eng.Schedule(time.Second, func() { issue(i + 1) })
		})
	}
	issue(0)
	r.eng.Run()
	for _, d := range durations {
		sumDur += d
	}
	return sumDur
}

func TestAllSchedulersCompleteBurstyWorkload(t *testing.T) {
	for _, name := range Names() {
		f, _ := Factory(name)
		r := newRig(t, f(), 1, 8)
		sum := runBursty(r, 5)
		if sum <= 0 {
			t.Fatalf("%s: bursty workload did not complete", name)
		}
		if got := r.conn.Receiver().DeliveredBytes(); got != 5*300_000 {
			t.Fatalf("%s: delivered %d bytes, want %d", name, got, 5*300_000)
		}
	}
}

func TestECFBeatsDefaultUnderHeterogeneity(t *testing.T) {
	// The headline claim: with a 0.3/8.6 Mbps split and bursty traffic,
	// ECF completes bursts faster than the default scheduler.
	rDef := newRig(t, newMinRTT(), 0.3, 8.6)
	sumDef := runBurstySized(rDef, 8, 1<<20)
	rEcf := newRig(t, NewECF(), 0.3, 8.6)
	sumEcf := runBurstySized(rEcf, 8, 1<<20)
	if sumEcf >= sumDef {
		t.Fatalf("ECF sum %v not better than default %v under heterogeneity", sumEcf, sumDef)
	}
}

func TestECFMatchesDefaultOnSymmetricPaths(t *testing.T) {
	rDef := newRig(t, newMinRTT(), 8, 8)
	sumDef := runBursty(rDef, 5)
	rEcf := newRig(t, NewECF(), 8, 8)
	sumEcf := runBursty(rEcf, 5)
	ratio := float64(sumEcf) / float64(sumDef)
	if ratio > 1.10 || ratio < 0.85 {
		t.Fatalf("symmetric paths: ECF/default ratio = %.2f, want ~1", ratio)
	}
}

func TestECFReducesOOODelay(t *testing.T) {
	rDef := newRig(t, newMinRTT(), 0.3, 8.6)
	runBursty(rDef, 5)
	rEcf := newRig(t, NewECF(), 0.3, 8.6)
	runBursty(rEcf, 5)
	mean := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var s float64
		for _, d := range ds {
			s += d.Seconds()
		}
		return s / float64(len(ds))
	}
	mDef := mean(rDef.conn.Receiver().OOODelays())
	mEcf := mean(rEcf.conn.Receiver().OOODelays())
	if mEcf >= mDef {
		t.Fatalf("mean OOO delay: ecf=%.4fs default=%.4fs, want ecf smaller", mEcf, mDef)
	}
}

func TestECFShiftsTrafficToFastPath(t *testing.T) {
	rDef := newRig(t, newMinRTT(), 0.3, 8.6)
	runBurstySized(rDef, 5, 1<<20)
	rEcf := newRig(t, NewECF(), 0.3, 8.6)
	runBurstySized(rEcf, 5, 1<<20)
	frac := func(r *rig) float64 {
		by := r.conn.Receiver().SubflowBytes()
		return float64(by[1]) / float64(by[0]+by[1])
	}
	fDef, fEcf := frac(rDef), frac(rEcf)
	if fEcf <= fDef {
		t.Fatalf("fast-path fraction: ecf=%.3f default=%.3f, want ecf larger", fEcf, fDef)
	}
	// Ideal fraction is 8.6/8.9 ≈ 0.97; over a short 5-burst run the
	// first burst's slow-path probing drags the average, but ECF should
	// still be well past 0.85 (the full-length experiment drivers get
	// much closer to ideal).
	if fEcf < 0.85 {
		t.Fatalf("ECF fast-path fraction = %.3f, want >= 0.85", fEcf)
	}
}

func TestDAPSSplitsByServiceRate(t *testing.T) {
	// Pure decision-level test: Select runs with nothing in flight, so
	// both subflows stay available, and service rates 10/rtt vs
	// 10/(4·rtt) should see a ~4:1 pick ratio.
	eng := sim.New()
	fast := netsim.NewPath(eng, netsim.PathConfig{Name: "fast", RateBps: 1e9, Delay: 5 * time.Millisecond, QueueBytes: 1 << 30})
	slow := netsim.NewPath(eng, netsim.PathConfig{Name: "slow", RateBps: 1e9, Delay: 20 * time.Millisecond, QueueBytes: 1 << 30})
	conn := mptcp.NewConn(eng, mptcp.DefaultConfig(0), cc.NewReno())
	d := newDAPS()
	conn.SetScheduler(d)
	for _, p := range []*netsim.Path{fast, slow} {
		fwd, rev := netsim.NewDemux(), netsim.NewDemux()
		p.SetForwardReceiver(fwd.OnPacket)
		p.SetReverseReceiver(rev.OnPacket)
		conn.AddSubflow(p.Name(), p, fwd, rev)
	}
	subflows := conn.Subflows()
	subflows[0].SeedRTT(10 * time.Millisecond)
	subflows[1].SeedRTT(40 * time.Millisecond)
	counts := map[int]int{}
	for i := 0; i < 1000; i++ {
		sf := d.Select(conn)
		if sf == nil {
			t.Fatal("DAPS returned nil with available subflows")
		}
		counts[sf.ID()]++
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 3.0 || ratio > 5.5 {
		t.Fatalf("DAPS pick ratio = %.2f (counts %v), want ~4", ratio, counts)
	}
}

func TestMinRTTPrefersLowerRTT(t *testing.T) {
	r := newRig(t, newMinRTT(), 8, 8)
	subflows := r.conn.Subflows()
	// Drive the estimates decisively past the handshake seeds.
	for i := 0; i < 50; i++ {
		subflows[0].SeedRTT(50 * time.Millisecond)
		subflows[1].SeedRTT(20 * time.Millisecond)
	}
	s := newMinRTT()
	if sf := s.Select(r.conn); sf != subflows[1] {
		t.Fatalf("minRTT picked %s, want the 20ms subflow", sf.Name())
	}
}

func TestMinRTTFallsBackWhenFastFull(t *testing.T) {
	r := newRig(t, newMinRTT(), 8, 8)
	subflows := r.conn.Subflows()
	subflows[0].SeedRTT(20 * time.Millisecond)
	subflows[1].SeedRTT(50 * time.Millisecond)
	// Fill subflow 0's window.
	for subflows[0].CanSend() {
		subflows[0].SendSegment(0, 1400)
	}
	s := newMinRTT()
	if sf := s.Select(r.conn); sf != subflows[1] {
		t.Fatal("minRTT should fall back to the slower available subflow")
	}
}

func TestSinglePathSticksToOne(t *testing.T) {
	r := newRig(t, newSinglePath(1), 8, 8)
	s := newSinglePath(1)
	for i := 0; i < 5; i++ {
		if sf := s.Select(r.conn); sf == nil || sf.ID() != 1 {
			t.Fatal("single-path scheduler must pin subflow 1")
		}
	}
	if sf := newSinglePath(9).Select(r.conn); sf != nil {
		t.Fatal("out-of-range single path should return nil")
	}
}

func TestRegistry(t *testing.T) {
	if got, want := fmt.Sprint(Names()), "[blest daps ecf minrtt wifi-only]"; got != want {
		t.Fatalf("Names() = %s, want %s", got, want)
	}
	for _, name := range Names() {
		f, err := Factory(name)
		if err != nil {
			t.Fatalf("Factory(%q): %v", name, err)
		}
		if f() == nil {
			t.Fatalf("factory %q built nil", name)
		}
	}
	if _, err := Factory("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestECFWaitsCounted(t *testing.T) {
	e := NewECF()
	r := newRig(t, e, 0.3, 8.6)
	runBursty(r, 5)
	if e.Waits() == 0 {
		t.Fatal("ECF should have recorded wait decisions under heterogeneity")
	}
}

// TestRecordedDecisionOutlivesNextSelect: a decision ECF records from a
// real Select — candidates and Eq. 1–2 quantities included — is the
// same after the scheduler's later Selects, so the ring may keep each
// record as built, with no copy: no Select reuses what an earlier one
// recorded.
func TestRecordedDecisionOutlivesNextSelect(t *testing.T) {
	r := newRig(t, NewECF(), 0.3, 8.6)
	rec := obs.NewCellRecorder("sched-test", 0)
	r.eng.Observe(rec)
	r.conn.Request(1<<20, nil)
	var at int
	var want obs.SchedDecision
	for step := time.Duration(1); want.Ecf == nil; step++ {
		if step > 1000 {
			t.Fatal("ECF never reached its Eq. 1–2 estimate in 10 simulated seconds")
		}
		r.eng.RunUntil(step * 10 * time.Millisecond)
		for i, d := range rec.Decisions.Events() {
			if d.Ecf != nil {
				at, want = i, d
				want.Candidates = slices.Clone(d.Candidates)
				q := *d.Ecf
				want.Ecf = &q
				break
			}
		}
	}
	before := rec.Decisions.Total()
	r.eng.Run()
	if rec.Decisions.Total() == before || rec.Decisions.Dropped() > 0 {
		t.Fatalf("%d decisions after the recorded one, %d overwritten; want more Selects and none overwritten",
			rec.Decisions.Total()-before, rec.Decisions.Dropped())
	}
	if got := rec.Decisions.Events()[at]; !reflect.DeepEqual(got, want) {
		t.Errorf("decision %d changed after later Selects:\n got %+v %+v\nwant %+v %+v", at, got, *got.Ecf, want, *want.Ecf)
	}
}
