package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	ties := NewCDF([]float64{2, 1, 2, 4, 2})
	cases := []struct {
		c       *CDF
		x, want float64
	}{
		{c, 0.5, 0}, {c, 1, 0.25}, {c, 2.5, 0.5}, {c, 4, 1}, {c, 9, 1},
		{ties, 2, 0.8}, {ties, 1.5, 0.2},
	}
	for _, tc := range cases {
		if got := tc.c.at(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("at(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCCDFComplement(t *testing.T) {
	if err := quick.Check(func(xs []float64, x float64) bool {
		c := NewCDF(xs)
		return math.Abs(c.at(x)+c.ccdfAt(x)-1) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMonotone(t *testing.T) {
	if err := quick.Check(func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		probe := append([]float64{}, xs...)
		sort.Float64s(probe)
		prev := -1.0
		for _, x := range probe {
			if math.IsNaN(x) {
				return true
			}
			v := c.at(x)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := c.Quantile(1); q != 50 {
		t.Fatalf("q1 = %v", q)
	}
	if q := c.Quantile(0.5); q != 30 {
		t.Fatalf("median = %v, want 30", q)
	}
	if q := c.Quantile(0.25); q != 20 {
		t.Fatalf("q25 = %v, want 20", q)
	}
	if q := c.Quantile(0.9); math.Abs(q-46) > 1e-9 {
		t.Fatalf("q90 = %v, want 46 (0.6 of the way from 40 to 50)", q)
	}
}

func TestQuantileWithinRange(t *testing.T) {
	if err := quick.Check(func(xs []float64, p float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		c := NewCDF(clean)
		p = math.Abs(math.Mod(p, 1))
		q := c.Quantile(p)
		s := append([]float64{}, clean...)
		sort.Float64s(s)
		return q >= s[0] && q <= s[len(s)-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMean(t *testing.T) {
	c := NewCDF([]float64{2, 4, 6})
	if m := c.Mean(); m != 4 {
		t.Fatalf("mean = %v", m)
	}
	if m := NewCDF(nil).Mean(); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
	// The sum runs in ascending order: 1 + 1 + 1e16 is exact, while
	// 1e16 + 1 would round the ones away.
	if m := NewCDF([]float64{1e16, 1, 1}).Mean(); m != (1e16+2)/3 {
		t.Fatalf("mean = %v, want the ascending sum's %v", m, (1e16+2)/3)
	}
}

func TestDurationsToSeconds(t *testing.T) {
	out := DurationsToSeconds([]time.Duration{time.Second, 500 * time.Millisecond})
	if out[0] != 1 || out[1] != 0.5 {
		t.Fatalf("out = %v", out)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("test", []string{"a", "b"}, []string{"x", "y", "z"})
	h.Set(0, 0, 0.5)
	h.Set(1, 2, 1.0)
	if h.At(0, 0) != 0.5 || h.At(1, 2) != 1.0 {
		t.Fatal("set/get mismatch")
	}
	if math.Abs(h.Mean()-0.25) > 1e-9 {
		t.Fatalf("mean = %v, want 0.25", h.Mean())
	}
	s := h.String()
	if !strings.Contains(s, "test") || !strings.Contains(s, "1.00") {
		t.Fatalf("render missing pieces:\n%s", s)
	}
	sh := h.Shade()
	if !strings.Contains(sh, "@@") {
		t.Fatalf("shade should use darkest char for 1.0:\n%s", sh)
	}
}

func TestHeatmapShadeClamps(t *testing.T) {
	h := NewHeatmap("", []string{"a"}, []string{"x"})
	h.Set(0, 0, 7.5) // out of range must not panic
	_ = h.Shade()
	h.Set(0, 0, -3)
	_ = h.Shade()
}

func TestTimeSeries(t *testing.T) {
	ts := &TimeSeries{}
	for i := 0; i < 10; i++ {
		ts.Add(time.Duration(i)*time.Second, float64(i))
	}
	if ts.Len() != 10 {
		t.Fatalf("len = %d", ts.Len())
	}
	if ts.MeanValue() != 4.5 {
		t.Fatalf("mean = %v", ts.MeanValue())
	}
	d := ts.Downsample(3)
	if d.Len() != 4 {
		t.Fatalf("downsampled len = %d, want 4", d.Len())
	}
	if d.V[1] != 3 {
		t.Fatalf("downsample picked %v, want 3", d.V[1])
	}
}

func TestTable(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22222")
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "alpha") {
		t.Fatalf("row render: %q", lines[1])
	}
	// Alignment: all lines equal width after trim of trailing spaces.
	if len(lines[0]) == 0 {
		t.Fatal("empty header line")
	}
}
