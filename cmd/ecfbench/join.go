package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/results"
)

// defaultWorkerID identifies this worker to the coordinator: hostname
// plus pid, unique enough for leases and readable in logs.
func defaultWorkerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// runJoin is the -join mode: a lease-loop worker against an ecfd
// coordinator. The coordinator dictates the scale; the worker claims
// cell batches, computes them through the ordinary pooled driver path
// (exactly the cells it holds leases on — the session's Claims gate
// skips everything else), uploads the records in batches while the next
// cells simulate, and heartbeats so a crash or hang forfeits its cells
// to other workers. Errors come back to main, which finalizes the
// profiles before exiting.
func runJoin(addr string, jobs int, cacheDir string, cellTimeout time.Duration, workerID string, progress bool) error {
	if workerID == "" {
		workerID = defaultWorkerID()
	}
	client := coord.NewClient(addr, workerID)
	client.Logf = func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "ecfbench[%s]: %s\n", workerID, fmt.Sprintf(format, a...))
	}
	ctx := context.Background()
	info, err := client.Sweep(ctx)
	if err != nil {
		return fmt.Errorf("%w (is `ecfd serve` running there?)", err)
	}
	sc, ok := experiments.ScaleByName(info.Scale)
	if !ok {
		return fmt.Errorf("coordinator sweeps unknown scale %q (version skew between ecfd and ecfbench?)", info.Scale)
	}
	sc.Workers = jobs
	if progress {
		pp := &progressPrinter{}
		sc.Progress = pp.note
	}
	var store *results.Store
	if cacheDir != "" {
		store, err = results.Open(cacheDir)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "ecfbench[%s]: joined %s: %s-scale sweep, %d cells, lease TTL %v\n",
		workerID, addr, info.Scale, info.TotalCells, time.Duration(info.LeaseTTLMs)*time.Millisecond)

	start := time.Now()
	stats, err := coord.RunWorker(ctx, coord.WorkerConfig{
		Client:      client,
		Store:       store,
		CellTimeout: cellTimeout,
		RunPass: func(ses *results.Session) error {
			return runCatalogPass(sc, ses)
		},
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "ecfbench[%s]: %s\n", workerID, fmt.Sprintf(format, a...))
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ecfbench[%s]: sweep done in %v: %d passes, %d cells claimed, %d uploaded (%d duplicate, %d returned, %d surrendered)\n",
		workerID, time.Since(start).Round(time.Millisecond),
		stats.Passes, stats.Claimed, stats.Uploaded, stats.Duplicates, stats.Lost, stats.Surrendered)
	return nil
}

// runCatalogPass runs one full-catalog pass under the worker's session,
// converting the drivers' *results.FatalError panics (store I/O, sink
// upload failures, cell timeouts) back into errors for the lease loop
// to handle; any other panic propagates with its stack.
func runCatalogPass(sc experiments.Scale, ses *results.Session) (err error) {
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
	sc.Results = ses
	experiments.RunCatalog(sc)
	return nil
}
