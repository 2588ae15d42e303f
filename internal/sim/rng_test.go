package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical draws across seeds", same)
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.03 {
		t.Fatalf("mean = %v, want ~1.0", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p := NewRNG(seed).Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReseedMatchesFreshConstruction(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		r.Uint64() // advance to an arbitrary interior state
	}
	r.Reseed(42)
	fresh := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := r.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d after Reseed(42) = %d, fresh NewRNG(42) = %d", i, got, want)
		}
	}
}
