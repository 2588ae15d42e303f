package tcp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRTTFirstSample(t *testing.T) {
	var e rttEstimator
	e.sample(100 * time.Millisecond)
	if e.srtt != 100*time.Millisecond {
		t.Fatalf("srtt = %v, want 100ms", e.srtt)
	}
	if e.rttvar != 50*time.Millisecond {
		t.Fatalf("rttvar = %v, want 50ms", e.rttvar)
	}
	// 300 ms lies inside the clamp, so the RTO is the bare formula.
	if e.rto() != e.srtt+4*e.rttvar {
		t.Fatalf("RTO = %v, want srtt + 4·rttvar = %v", e.rto(), e.srtt+4*e.rttvar)
	}
}

func TestRTTConvergesToConstant(t *testing.T) {
	var e rttEstimator
	for i := 0; i < 200; i++ {
		e.sample(80 * time.Millisecond)
	}
	if d := e.srtt - 80*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("srtt = %v, want ~80ms", e.srtt)
	}
	if e.rttvar > time.Millisecond {
		t.Fatalf("rttvar = %v for constant samples, want ~0", e.rttvar)
	}
}

func TestRTOBeforeSamples(t *testing.T) {
	var e rttEstimator
	if e.rto() != time.Second {
		t.Fatalf("initial RTO = %v, want 1s", e.rto())
	}
}

func TestRTOMinClamp(t *testing.T) {
	var e rttEstimator
	for i := 0; i < 100; i++ {
		e.sample(time.Millisecond)
	}
	if e.rto() != 200*time.Millisecond {
		t.Fatalf("RTO = %v, want clamped 200ms", e.rto())
	}
}

func TestRTOMaxClamp(t *testing.T) {
	var e rttEstimator
	for i := 0; i < 10; i++ {
		e.sample(200 * time.Second)
	}
	if e.rto() != maxRTO {
		t.Fatalf("RTO = %v, want clamped %v", e.rto(), maxRTO)
	}
}

func TestRTOAtLeastSrtt(t *testing.T) {
	if err := quick.Check(func(ms uint16) bool {
		var e rttEstimator
		d := time.Duration(ms%5000+1) * time.Millisecond
		for i := 0; i < 20; i++ {
			e.sample(d)
		}
		return e.rto() >= e.srtt
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRTTSampleCountAndNonPositive(t *testing.T) {
	var e rttEstimator
	e.sample(-5 * time.Millisecond) // treated as tiny positive
	if e.samples != 1 {
		t.Fatalf("samples = %d, want 1", e.samples)
	}
	if e.srtt <= 0 {
		t.Fatalf("srtt = %v, want positive", e.srtt)
	}
}

func TestRTTVariabilityRaisesStdDev(t *testing.T) {
	var e rttEstimator
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			e.sample(50 * time.Millisecond)
		} else {
			e.sample(150 * time.Millisecond)
		}
	}
	if e.rttvar < 20*time.Millisecond {
		t.Fatalf("rttvar = %v for alternating 50/150ms, want >= 20ms", e.rttvar)
	}
}
