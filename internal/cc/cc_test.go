package cc

import (
	"testing"
	"testing/quick"
)

// fakeFlow implements Flow for controller tests.
type fakeFlow struct {
	cwnd, ssthresh, srtt float64
}

func (f *fakeFlow) Cwnd() float64         { return f.cwnd }
func (f *fakeFlow) SetCwnd(w float64)     { f.cwnd = w }
func (f *fakeFlow) SetSsthresh(w float64) { f.ssthresh = w }
func (f *fakeFlow) SrttSeconds() float64  { return f.srtt }
func (f *fakeFlow) InSlowStart() bool     { return f.cwnd < f.ssthresh }

func TestRenoIncreaseOneSegmentPerRTT(t *testing.T) {
	r := NewReno()
	f := &fakeFlow{cwnd: 10, ssthresh: 5, srtt: 0.1}
	// 10 acks of 1 segment each = one full window = +1 segment.
	for i := 0; i < 10; i++ {
		r.OnAck(f, 1)
	}
	if f.cwnd < 10.9 || f.cwnd > 11.1 {
		t.Fatalf("cwnd = %v after one window of acks, want ~11", f.cwnd)
	}
}

func TestRenoLossHalves(t *testing.T) {
	r := NewReno()
	f := &fakeFlow{cwnd: 20, ssthresh: 30, srtt: 0.1}
	r.OnLoss(f)
	if f.cwnd != 10 || f.ssthresh != 10 {
		t.Fatalf("after loss cwnd=%v ssthresh=%v, want 10/10", f.cwnd, f.ssthresh)
	}
}

func TestLossFloor(t *testing.T) {
	for _, c := range []Controller{NewReno(), NewLIA(), NewOLIA()} {
		f := &fakeFlow{cwnd: 1.5, ssthresh: 10, srtt: 0.1}
		c.Register(f)
		c.OnLoss(f)
		if f.cwnd < minCwnd {
			t.Fatalf("%s: cwnd = %v after loss, want >= %v", c.name(), f.cwnd, minCwnd)
		}
	}
}

func TestLIALessAggressiveThanReno(t *testing.T) {
	// RFC 6356 goal: the coupled increase on any subflow never exceeds
	// what Reno would do.
	lia := NewLIA()
	a := &fakeFlow{cwnd: 10, srtt: 0.05}
	b := &fakeFlow{cwnd: 40, srtt: 0.2}
	lia.Register(a)
	lia.Register(b)
	beforeA := a.cwnd
	lia.OnAck(a, 1)
	liaInc := a.cwnd - beforeA
	renoInc := 1.0 / beforeA
	if liaInc > renoInc+1e-12 {
		t.Fatalf("LIA increase %v exceeds Reno %v", liaInc, renoInc)
	}
	if liaInc <= 0 {
		t.Fatalf("LIA increase %v, want positive", liaInc)
	}
}

func TestLIASingleFlowBehavesLikeReno(t *testing.T) {
	lia := NewLIA()
	f := &fakeFlow{cwnd: 10, srtt: 0.1}
	lia.Register(f)
	lia.OnAck(f, 1)
	inc := f.cwnd - 10
	// With one flow alpha = 1 so increase = 1/total = 1/10 = Reno.
	if inc < 0.099 || inc > 0.101 {
		t.Fatalf("single-flow LIA increase = %v, want 0.1", inc)
	}
}

func TestLIAUnregister(t *testing.T) {
	lia := NewLIA()
	a := &fakeFlow{cwnd: 10, srtt: 0.1}
	b := &fakeFlow{cwnd: 10, srtt: 0.1}
	lia.Register(a)
	lia.Register(b)
	lia.Unregister(b)
	lia.OnAck(a, 1)
	inc := a.cwnd - 10
	if inc < 0.099 || inc > 0.101 {
		t.Fatalf("after unregister increase = %v, want Reno-like 0.1", inc)
	}
}

func TestOLIAIncreasePositiveAndBounded(t *testing.T) {
	olia := NewOLIA()
	a := &fakeFlow{cwnd: 10, srtt: 0.05}
	b := &fakeFlow{cwnd: 40, srtt: 0.2}
	olia.Register(a)
	olia.Register(b)
	before := b.cwnd
	olia.OnAck(b, 1)
	inc := b.cwnd - before
	if inc < 0 {
		t.Fatalf("OLIA shrank window on ack: %v", inc)
	}
	if inc > 1.0/before+1e-12 {
		t.Fatalf("OLIA increase %v exceeds Reno bound %v", inc, 1.0/before)
	}
}

func TestOLIAFavorsBestSmallWindowPath(t *testing.T) {
	olia := NewOLIA()
	// a: small window, good quality (low rtt); b: big window.
	a := &fakeFlow{cwnd: 4, srtt: 0.02}
	b := &fakeFlow{cwnd: 50, srtt: 0.02}
	olia.Register(a)
	olia.Register(b)
	aBefore, bBefore := a.cwnd, b.cwnd
	olia.OnAck(a, 1)
	olia.OnAck(b, 1)
	incA := (a.cwnd - aBefore) / aBefore
	incB := (b.cwnd - bBefore) / bBefore
	if incA <= incB {
		t.Fatalf("relative increase a=%v b=%v; OLIA should favor the best small-window path", incA, incB)
	}
}

func TestControllersHandleZeroRTT(t *testing.T) {
	// Before the first RTT sample SrttSeconds is 0; controllers must not
	// divide by zero.
	for _, c := range []Controller{NewReno(), NewLIA(), NewOLIA()} {
		f := &fakeFlow{cwnd: 10, srtt: 0}
		c.Register(f)
		c.OnAck(f, 1)
		if f.cwnd <= 10 || f.cwnd != f.cwnd /* NaN check */ {
			t.Fatalf("%s: cwnd = %v with zero rtt, want growth and not NaN", c.name(), f.cwnd)
		}
	}
}

func TestHalvePropertyNeverBelowFloor(t *testing.T) {
	if err := quick.Check(func(w float64) bool {
		if w != w || w < 0 || w > 1e9 {
			return true // skip absurd inputs
		}
		f := &fakeFlow{cwnd: w}
		halve(f)
		return f.cwnd >= minCwnd && f.cwnd <= w/2+minCwnd
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNames(t *testing.T) {
	if NewReno().name() != "reno" || NewLIA().name() != "lia" || NewOLIA().name() != "olia" {
		t.Fatal("controller name mismatch")
	}
}

// TestOLIAOnAckAllocates0 pins OLIA to the steady-state contract LIA
// keeps: the coupled increase allocates nothing per ACK.
func TestOLIAOnAckAllocates0(t *testing.T) {
	olia := NewOLIA()
	a := &fakeFlow{cwnd: 4, srtt: 0.02}
	b := &fakeFlow{cwnd: 50, srtt: 0.2}
	olia.Register(a)
	olia.Register(b)
	if avg := testing.AllocsPerRun(100, func() {
		olia.OnAck(a, 1)
		olia.OnAck(b, 2)
	}); avg != 0 {
		t.Fatalf("OLIA OnAck allocates %v times per pair of ACKs, want 0", avg)
	}
}
