package experiments

import (
	"slices"
	"strings"
	"testing"
)

func TestTable1MatchesPaper(t *testing.T) {
	r := Table1()
	s := r.String()
	for _, want := range []string{"144p", "1080p", "0.26", "8.47"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestRunStreamingBasics(t *testing.T) {
	out := Streaming(4.2, 4.2, "ecf", 40).Run()
	if !out.Finished {
		t.Fatal("streaming run did not finish")
	}
	if out.FastFraction <= 0 || out.FastFraction > 1 {
		t.Fatalf("fast fraction = %v", out.FastFraction)
	}
	if out.IdealFraction != 0.5 {
		t.Fatalf("ideal fraction = %v for symmetric pair, want 0.5", out.IdealFraction)
	}
	if len(out.OOODelays) == 0 {
		t.Fatal("no OOO samples")
	}
}

// TestRunStreamingSamplesTraces also pins what the "sampled" records
// leave out: every trace is sampled at sampleTimes' instants, which the
// Figure 3, 11 and 12 renderers derive instead of reading them.
func TestRunStreamingSamplesTraces(t *testing.T) {
	s := Streaming(0.3, 8.6, "minrtt", 30)
	s.Workload.SampleInterval = sampleInterval
	out := s.Run()
	if len(out.CwndTraces) != 2 || len(out.SndbufTraces) != 2 {
		t.Fatalf("trace counts = %d/%d, want 2/2", len(out.CwndTraces), len(out.SndbufTraces))
	}
	if out.CwndTraces[0].Len() < 50 {
		t.Fatalf("cwnd trace too short: %d points", out.CwndTraces[0].Len())
	}
	for _, tr := range append(out.CwndTraces, out.SndbufTraces...) {
		if !slices.Equal(tr.T, sampleTimes(tr.Len())) || len(tr.V) != tr.Len() {
			t.Fatalf("a trace of %d samples is not sampled every %v from 0", tr.Len(), sampleInterval)
		}
	}
	if out.SubflowNames[0] != "wifi" || out.SubflowNames[1] != "lte" {
		t.Fatalf("subflow names = %v", out.SubflowNames)
	}
}

func TestGridRendering(t *testing.T) {
	g := ecfGrid(Scale{GridVideoSec: 15})
	h := g.heatmap()
	s := h.String() + h.Shade()
	if !strings.Contains(s, "ecf") {
		t.Fatalf("heatmap render missing scheduler name:\n%s", s)
	}
	for i := range g.Bandwidths {
		for j := range g.Bandwidths {
			v := g.Cells[i][j].BitrateRatio
			if v < 0 || v > 1 {
				t.Fatalf("ratio out of range at %d,%d: %v", i, j, v)
			}
		}
	}
}
