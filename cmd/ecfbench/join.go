package main

import (
	"context"
	"fmt"
	"io"
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

// join is the -join mode: a lease-loop worker against an ecfd
// coordinator. The coordinator dictates the scale; the worker plans the
// catalog once, then claims cell batches and runs the plan once per
// pass (exactly the cells it holds leases on — the session's Claims gate
// skips everything else), uploads the records in batches while the next
// cells simulate, and heartbeats so a crash or hang forfeits its cells
// to other workers.
func (c *config) join(stderr io.Writer) error {
	workerID := c.workerID
	if workerID == "" {
		workerID = defaultWorkerID()
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "ecfbench[%s]: %s\n", workerID, fmt.Sprintf(format, a...))
	}
	client := coord.NewClient(c.joinAddr, workerID)
	client.Logf = logf
	ctx := context.Background()
	info, err := client.Sweep(ctx)
	if err != nil {
		return fmt.Errorf("%w (is `ecfd serve` running there?)", err)
	}
	sc, ok := experiments.ScaleByName(info.Scale)
	if !ok {
		return fmt.Errorf("coordinator sweeps unknown scale %q (version skew between ecfd and ecfbench?)", info.Scale)
	}
	plan := experiments.NewPlan(sc, experiments.Catalog...)
	var store *results.Store
	if c.cacheDir != "" {
		store, err = results.Open(c.cacheDir)
		if err != nil {
			return err
		}
	}
	logf("joined %s: %s-scale sweep, %d cells, lease TTL %v",
		c.joinAddr, info.Scale, info.TotalCells, time.Duration(info.LeaseTTLMs)*time.Millisecond)

	start := time.Now()
	stats, err := coord.RunWorker(ctx, coord.WorkerConfig{
		Client: client,
		Store:  store,
		RunPass: func(ses *results.Session) error {
			return plan.Run(c.jobs, ses)
		},
		Logf: logf,
	})
	if err != nil {
		return err
	}
	logf("sweep done in %v: %d passes, %d cells claimed, %d uploaded (%d duplicate, %d returned, %d surrendered)",
		time.Since(start).Round(time.Millisecond),
		stats.Passes, stats.Claimed, stats.Uploaded, stats.Duplicates, stats.Lost, stats.Surrendered)
	return nil
}
