// Command ecfd is the distributed-sweep coordinator daemon.
//
// Usage:
//
//	ecfd serve -cache-dir store -scale full -addr :7468
//	ecfd serve -cache-dir store -scale quick -addr :7468 -exit-when-done
//	ecfd status -addr host:7468
//
// serve enumerates the full experiment catalog's cell work list at the
// given scale, resumes from any records already in the store (a
// restarted coordinator never recomputes finished cells), and serves
// the lease/ingest protocol of internal/coord. Workers join with
//
//	ecfbench -join host:7468 [-j N] [-cache-dir localcache]
//
// and the sweep survives workers crashing, hanging, or flapping: a
// worker that stops heartbeating loses its leases after the TTL and
// its cells are re-issued (work-stealing), while duplicate uploads
// from stolen-then-revived workers are idempotent no-ops. A failed cell
// fails alike on every worker, so its first failure parks it (exit 1
// once the sweep settles). SIGTERM
// drains in-flight ingests and exits; the store is the only state, so
// rerunning `ecfd serve` with the same flags resumes the sweep, and
// sweeps at other scales may share the store. Once the sweep completes,
// the report renders from the coordinator's own store:
//
//	ecfbench -exp all -scale <scale> -cache-dir store -merge
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/experiments"
	"repro/internal/results"
)

// fail prints one clean message and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecfd: "+format+"\n", args...)
	os.Exit(1)
}

// failUsage prints one clean message and exits 2.
func failUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecfd: "+format+"\n", args...)
	os.Exit(2)
}

// parseFlags parses a subcommand's flags. A positional argument, which
// would silently drop every flag after it, is a usage error.
func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		failUsage("unexpected argument %q (flags after it would be ignored)", fs.Arg(0))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ecfd serve  -cache-dir DIR [-scale full|quick] [-addr :7468] [-lease-ttl 45s] [-claim-batch 32] [-exit-when-done]
  ecfd status -addr HOST:7468`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "status":
		status(os.Args[2:])
	default:
		usage()
	}
}

// workList expands the enumerated cell families into the sweep's
// stable, duplicate-free work list.
func workList(sc experiments.Scale) []results.Key {
	fams := experiments.EnumerateCells(sc)
	var cells []results.Key
	for _, f := range fams {
		for i := 0; i < f.Cells; i++ {
			cells = append(cells, f.Spec.Key(i))
		}
	}
	return cells
}

func serve(args []string) {
	fs := flag.NewFlagSet("ecfd serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":7468", "listen address")
		cacheDir  = fs.String("cache-dir", "", "the coordinator's record store (created if missing); also the resume state")
		scaleName = fs.String("scale", "full", "scale profile the sweep runs at: full or quick")
		leaseTTL  = fs.Duration("lease-ttl", 45*time.Second, "how long a silent worker keeps its leases before they are stolen")
		batch     = fs.Int("claim-batch", 32, "cells handed out per claim")
		exitDone  = fs.Bool("exit-when-done", false, "exit once every cell is done or parked as failed (0 on complete, 1 otherwise)")
	)
	parseFlags(fs, args)
	if *cacheDir == "" {
		failUsage("serve requires -cache-dir (the sweep's store and resume state)")
	}
	sc, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		failUsage("unknown scale %q (full|quick)", *scaleName)
	}
	if *leaseTTL <= 0 {
		failUsage("-lease-ttl must be positive")
	}
	if *batch < 1 {
		failUsage("-claim-batch must be at least 1")
	}
	store, err := results.Open(*cacheDir)
	if err != nil {
		fail("%v", err)
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "ecfd: "+format+"\n", a...)
	}
	logf("enumerating the %s-scale cell matrix...", *scaleName)
	cells := workList(sc)
	srv, err := coord.NewServer(coord.Config{
		Store:     store,
		Cells:     cells,
		ScaleName: *scaleName,
		LeaseTTL:  *leaseTTL,
		BatchSize: *batch,
		Logf:      logf,
	})
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("listen %s: %v", *addr, err)
	}
	st := srv.Status()
	logf("serving sweep on %s: %d cells total, %d already done, lease TTL %v, batch %d",
		ln.Addr(), st.Total, st.Done, *leaseTTL, *batch)
	logf("join workers with: ecfbench -join <host>%s", portSuffix(ln.Addr()))

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	done := false
	select {
	case <-sigCtx.Done():
		logf("signal received; draining in-flight ingests...")
	case <-func() <-chan struct{} {
		if *exitDone {
			return srv.Done()
		}
		return make(chan struct{}) // never: keep serving after completion
	}():
		done = true
		logf("sweep settled; shutting down")
	case err := <-serveErr:
		fail("serve: %v", err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		logf("shutdown: %v", err)
	}
	st = srv.Status()
	logf("stopped: %d/%d done, %d failed; restart `ecfd serve` with the same -cache-dir to resume",
		st.Done, st.Total, st.Failed)
	logf("sweep stats: %d ingested, %d duplicate uploads, %d leases stolen", st.Ingested, st.Duplicates, st.Stolen)
	if done || st.SweepDone {
		if !st.Complete {
			logf("sweep finished with %d permanently failed cells:", st.Failed)
			printFailed(st.FailedList)
			os.Exit(1)
		}
		logf("sweep complete; render with: ecfbench -exp all -scale %s -cache-dir %s -merge", *scaleName, *cacheDir)
	}
}

// portSuffix extracts ":port" from a listener address for the join
// hint.
func portSuffix(a net.Addr) string {
	if tcp, ok := a.(*net.TCPAddr); ok {
		return fmt.Sprintf(":%d", tcp.Port)
	}
	return ""
}

// printFailed lists permanently failed cells.
func printFailed(cells []coord.FailedCell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].Key, cells[j].Key
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return a.Cell < b.Cell
	})
	for _, f := range cells {
		fmt.Fprintf(os.Stderr, "  cell %d of %q (schema %d, scale %q): %s\n",
			f.Key.Cell, f.Key.Experiment, f.Key.Schema, f.Key.Scale, f.LastError)
	}
}

func status(args []string) {
	fs := flag.NewFlagSet("ecfd status", flag.ExitOnError)
	addr := fs.String("addr", "localhost:7468", "coordinator address")
	parseFlags(fs, args)
	client := coord.NewClient(*addr, "status")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := client.Status(ctx)
	if err != nil {
		fail("%v", err)
	}
	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	if st.Failed > 0 {
		os.Exit(1)
	}
}
