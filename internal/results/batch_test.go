package results

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

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
			b := NewBatch()
			addAll(b, Spec{Experiment: "unit/plain", Schema: 1, Scale: "s"}, tc.plainN,
				func(i int) rec { ran = append(ran, i); return rec{Cell: i} },
				func(i int, v rec) { out[i] = v })
			for i, c := range costs {
				AddCell(b, Spec{Experiment: "unit/lpt", Schema: 1, Scale: "s"}, i, c,
					func(i int) rec { ran = append(ran, tc.plainN+i); return rec{Cell: tc.plainN + i} },
					func(i int, v rec) { out[tc.plainN+i] = v })
			}
			if err := b.Run(nil, 1); err != nil {
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

// TestBatchFirstFailureIndependentOfWorkers: two failing cells whose
// costs run opposite to their registration order, each slow enough
// that a second worker has the other in flight when it fails. The batch
// reports the one it dispatches first, the higher-cost cell, at every
// worker count and on every run.
func TestBatchFirstFailureIndependentOfWorkers(t *testing.T) {
	sp := spec()
	fail := func(i int) rec {
		time.Sleep(5 * time.Millisecond)
		panic(&CellError{Err: fmt.Errorf("cell %d fails", i)})
	}
	for _, workers := range []int{1, 2, 4} {
		for run := 0; run < 20; run++ {
			b := NewBatch()
			AddCell(b, sp, 0, 1, fail, func(int, rec) {})
			AddCell(b, sp, 1, 2, fail, func(int, rec) {})
			var ce *CellError
			if err := b.Run(&Session{}, workers); !errors.As(err, &ce) || ce.Key != sp.Key(1) {
				t.Fatalf("workers=%d run %d: Run = %v, want the *CellError of cell 1, the higher-cost cell", workers, run, err)
			}
		}
	}
}

func TestBatchRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		counts := make([]int32, n)
		b := NewBatch()
		addAll(b, spec(), n, func(i int) rec { atomic.AddInt32(&counts[i], 1); return rec{} }, func(int, rec) {})
		if err := b.Run(nil, workers); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestBatchResultsIndependentOfWorkerCount(t *testing.T) {
	// Each cell's record derives only from its index; the collected
	// slice must be identical for any worker count.
	const n = 40
	collect := func(workers int) []rec {
		out := make([]rec, n)
		var computes atomic.Int64
		if err := runSpec(workers, nil, spec(), n, computeRec(&computes), collectInto(out)); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := collect(1)
	for _, w := range []int{2, 3, 8} {
		if got := collect(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: collected %+v, want %+v", w, got, want)
		}
	}
}

func TestBatchPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered no *PanicError", workers)
				}
				if pe.Key != spec().Key(3) || pe.Value != "boom" || len(pe.Stack) == 0 {
					t.Fatalf("workers=%d: PanicError = key %+v value %v stack %d bytes",
						workers, pe.Key, pe.Value, len(pe.Stack))
				}
			}()
			runSpec(workers, nil, spec(), 16, func(i int) rec {
				if i == 3 {
					panic("boom")
				}
				return rec{}
			}, func(int, rec) {})
		}()
	}
}

func TestBatchPanicCancelsRemainingJobs(t *testing.T) {
	const n = 1000
	var started atomic.Int32
	func() {
		defer func() { recover() }()
		runSpec(2, nil, spec(), n, func(i int) rec {
			started.Add(1)
			if i == 0 {
				panic("die early")
			}
			// Give the failure a moment to land before the next pull.
			time.Sleep(time.Millisecond)
			return rec{}
		}, func(int, rec) {})
	}()
	if s := started.Load(); s >= n {
		t.Fatalf("all %d cells started despite an early panic", s)
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	base := errors.New("root cause")
	if !errors.Is(&PanicError{Value: base}, base) {
		t.Fatal("PanicError should unwrap to an error panic value")
	}
	if (&PanicError{Value: "text"}).Unwrap() != nil {
		t.Fatal("non-error panic value should unwrap to nil")
	}
}

func TestBatchZeroJobs(t *testing.T) {
	if err := NewBatch().Run(nil, 4); err != nil {
		t.Fatalf("empty batch: err = %v", err)
	}
}
