package results

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/runner"
)

func TestLPTOrder(t *testing.T) {
	// No cost hint anywhere → no reordering (nil keeps the pool on its
	// index-order fast path).
	if ord := lptOrder([]float64{0, 0, 0}); ord != nil {
		t.Fatalf("lptOrder(all zero) = %v, want nil", ord)
	}
	if ord := lptOrder(nil); ord != nil {
		t.Fatalf("lptOrder(nil) = %v, want nil", ord)
	}
	// Descending cost, stable on ties (equal-cost jobs keep their index
	// order, preserving determinism of the dispatch sequence).
	got := lptOrder([]float64{1, 5, 3, 5, 0})
	want := []int{1, 3, 2, 0, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lptOrder = %v, want %v", got, want)
	}
}

// TestBatchRunDispatchesExpensiveFirst pins the LPT wiring end to end:
// a batch whose cells carry cost hints runs them most-expensive-first
// on a single worker, cost-less cells of the same batch follow in
// registration order, and the collected results are untouched by the
// reordering.
func TestBatchRunDispatchesExpensiveFirst(t *testing.T) {
	costs := []float64{2, 9, 1, 7, 4} // LPT order: 1, 3, 4, 0, 2
	for _, tc := range []struct {
		name     string
		plainN   int // cost-less cells registered BEFORE the costed ones
		wantPlan []int
	}{
		{"costed only", 0, []int{1, 3, 4, 0, 2}},
		// Jobs 0..2 are the cost-less cells, 3..7 the costed ones: the
		// costed ones lead, the plain ones keep their own order behind.
		{"cost-less Add mixed in", 3, []int{4, 6, 7, 3, 5, 0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ran []int
			n := tc.plainN + len(costs)
			out := make([]rec, n)
			b := NewBatch(runner.New(1), nil)
			addAll(b, Spec{Experiment: "unit/plain", Schema: 1, Scale: "s"}, tc.plainN,
				func(i int) rec { ran = append(ran, i); return rec{Cell: i} },
				func(i int, v rec) { out[i] = v })
			for i, c := range costs {
				AddCell(b, Spec{Experiment: "unit/lpt", Schema: 1, Scale: "s"}, i, c,
					func(i int) rec { ran = append(ran, tc.plainN+i); return rec{Cell: tc.plainN + i} },
					func(i int, v rec) { out[tc.plainN+i] = v })
			}
			if err := b.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ran, tc.wantPlan) {
				t.Fatalf("dispatch sequence %v, want LPT order %v", ran, tc.wantPlan)
			}
			for i, v := range out {
				if v.Cell != i {
					t.Fatalf("out[%d] = %+v: collection must be index-faithful under reordering", i, v)
				}
			}
		})
	}
}
