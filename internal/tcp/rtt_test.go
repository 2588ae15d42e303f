package tcp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRTTFirstSample(t *testing.T) {
	var e RTTEstimator
	e.sample(100 * time.Millisecond)
	if e.Srtt() != 100*time.Millisecond {
		t.Fatalf("srtt = %v, want 100ms", e.Srtt())
	}
	if e.StdDev() != 50*time.Millisecond {
		t.Fatalf("rttvar = %v, want 50ms", e.StdDev())
	}
	// 300 ms lies inside the clamp, so the RTO is the bare formula.
	if e.rto() != e.Srtt()+4*e.StdDev() {
		t.Fatalf("RTO = %v, want srtt + 4·rttvar = %v", e.rto(), e.Srtt()+4*e.StdDev())
	}
}

func TestRTTConvergesToConstant(t *testing.T) {
	var e RTTEstimator
	for i := 0; i < 200; i++ {
		e.sample(80 * time.Millisecond)
	}
	if d := e.Srtt() - 80*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("srtt = %v, want ~80ms", e.Srtt())
	}
	if e.StdDev() > time.Millisecond {
		t.Fatalf("rttvar = %v for constant samples, want ~0", e.StdDev())
	}
}

func TestRTOBeforeSamples(t *testing.T) {
	var e RTTEstimator
	if e.rto() != time.Second {
		t.Fatalf("initial RTO = %v, want 1s", e.rto())
	}
}

func TestRTOMinClamp(t *testing.T) {
	var e RTTEstimator
	for i := 0; i < 100; i++ {
		e.sample(time.Millisecond)
	}
	if e.rto() != 200*time.Millisecond {
		t.Fatalf("RTO = %v, want clamped 200ms", e.rto())
	}
}

func TestRTOMaxClamp(t *testing.T) {
	var e RTTEstimator
	for i := 0; i < 10; i++ {
		e.sample(200 * time.Second)
	}
	if e.rto() != maxRTO {
		t.Fatalf("RTO = %v, want clamped %v", e.rto(), maxRTO)
	}
}

func TestRTOAtLeastSrtt(t *testing.T) {
	if err := quick.Check(func(ms uint16) bool {
		var e RTTEstimator
		d := time.Duration(ms%5000+1) * time.Millisecond
		for i := 0; i < 20; i++ {
			e.sample(d)
		}
		return e.rto() >= e.Srtt()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRTTSampleCountAndNonPositive(t *testing.T) {
	var e RTTEstimator
	e.sample(-5 * time.Millisecond) // treated as tiny positive
	if e.Samples() != 1 {
		t.Fatalf("samples = %d, want 1", e.Samples())
	}
	if e.Srtt() <= 0 {
		t.Fatalf("srtt = %v, want positive", e.Srtt())
	}
}

func TestRTTVariabilityRaisesStdDev(t *testing.T) {
	var e RTTEstimator
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			e.sample(50 * time.Millisecond)
		} else {
			e.sample(150 * time.Millisecond)
		}
	}
	if e.StdDev() < 20*time.Millisecond {
		t.Fatalf("rttvar = %v for alternating 50/150ms, want >= 20ms", e.StdDev())
	}
}
