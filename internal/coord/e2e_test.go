package coord

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/results"
)

// tablePass runs the real Table 2 driver under a worker session,
// converting the driver's *results.FatalError panics back into errors —
// the same recovery ecfbench's join mode performs over the full catalog.
func tablePass(ses *results.Session) (err error) {
	defer func() {
		if v := recover(); v != nil {
			var fe *results.FatalError
			if pe, ok := v.(error); ok && errors.As(pe, &fe) {
				err = fe.Err
				return
			}
			panic(v)
		}
	}()
	sc := experiments.Quick
	sc.Workers = 2
	sc.Results = ses
	experiments.Table2(sc)
	return nil
}

// TestDistributedTable2RendersByteIdentical is the in-process end of
// the distributed determinism contract: a sweep computed by two
// lease-loop workers — one of which dies mid-sweep without releasing
// anything — and merged from the coordinator's store renders the exact
// bytes a single-machine run prints. (The CI integration job proves the
// same over real processes, SIGKILL included, for the whole catalog.)
func TestDistributedTable2RendersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}

	// Golden: the ordinary in-process run.
	direct := experiments.Quick
	direct.Workers = 2
	golden := experiments.Table2(direct).String()

	// The sweep's work list: exactly Table 2's cells, the "table2"
	// family of the quick catalog's work list.
	var cells []results.Key
	for _, f := range experiments.EnumerateCells(experiments.Quick) {
		for i := 0; f.Spec.Experiment == "table2" && i < f.Cells; i++ {
			cells = append(cells, f.Spec.Key(i))
		}
	}
	if len(cells) == 0 {
		t.Fatal("enumeration found no cells")
	}

	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Store: store, Cells: cells, ScaleName: "quick",
		LeaseTTL: 400 * time.Millisecond, BatchSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Worker "victim" claims a batch and dies without heartbeating or
	// releasing — its leases must be stolen.
	victim := fastClient(hs.URL, "victim")
	if resp, err := victim.claim(context.Background(), 3); err != nil || len(resp.Cells) == 0 {
		t.Fatalf("victim claim: %v (%d cells)", err, len(resp.Cells))
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[w] = RunWorker(context.Background(), WorkerConfig{
				Client:       fastClient(hs.URL, []string{"alpha", "beta"}[w]),
				RunPass:      tablePass,
				PollInterval: 20 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := srv.Status()
	if !st.Complete || st.Done != len(cells) {
		t.Fatalf("status = %+v, want all %d cells done", st, len(cells))
	}
	if st.Stolen == 0 {
		t.Fatal("the dead worker's leases were never stolen")
	}

	// Render from the coordinator's store alone.
	merged := experiments.Quick
	merged.Results = &results.Session{Store: store, Merge: true}
	got := experiments.Table2(merged).String()
	if got != golden {
		t.Fatalf("distributed sweep renders differently:\n--- direct ---\n%s\n--- merged ---\n%s", golden, got)
	}
}
