// Command ecfbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ecfbench -list
//	ecfbench -exp fig9
//	ecfbench -exp table3 -scale quick
//	ecfbench -exp all -j 8
//	ecfbench -exp all -cache-dir cache            # cache cells; rerun is instant
//	ecfbench -exp all -cache-dir cache -shard 0/2 # simulate half the cells
//	ecfbench -exp all -cache-dir cache -merge     # assemble purely from cache
//	ecfbench -join host:7468                      # lease-loop worker for `ecfd serve`
//	ecfbench -exp all -cell-timeout 2m            # fail loudly if one cell wedges
//	ecfbench -cache-dir cache -cache-stats        # audit what occupies the store
//	ecfbench -cache-dir cache -cache-prune -dry-run  # preview stale-group cleanup
//	ecfbench -cache-dir cache -cache-prune        # delete groups no current run reads
//	ecfbench -cache-dir cache -cache-prune -older-than 720h  # also age out in-matrix records
//	ecfbench -exp fig9 -cpuprofile cpu.pprof      # profile a run (also -memprofile)
//	ecfbench -exp fig9 -trace-cell grid/ecf/14 -trace-out trace.json  # flight-record one cell
//	ecfbench -exp all -report-json report.json    # machine-readable run summary
//	ecfbench -exp all -progress                   # cells/total + ETA on stderr
//	ecfbench -exp all -debug-addr localhost:6060  # live pprof + counter snapshot
//
// Each experiment prints the same rows/series the paper reports (see
// README.md for the experiment index) on stdout; timing and cache
// statistics go to stderr, so stdout is byte-identical for any -j value
// and for cold vs. warm cache runs — including runs with -trace-cell,
// which only observes. -cache-dir persists every simulation cell's
// record keyed by (experiment, cell, scale, schema); -shard i/n
// simulates only the cells with index%n == i (for splitting a sweep
// across machines); -merge renders everything from cached records
// alone and fails listing every missing cell, grouped by experiment,
// with the exact command to backfill them. -join turns the process
// into a lease-loop worker for a `ecfd serve` coordinator: claim a
// batch of cells, simulate, upload, heartbeat — with retry/backoff on
// every RPC and work-stealing semantics when a worker dies (see
// internal/coord).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/sim"
)

// fail prints one clean message and exits 1 — operational failures
// (unwritable cache dirs, store I/O, merge misses). Usage mistakes go
// through failUsage instead.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecfbench: "+format+"\n", args...)
	os.Exit(1)
}

// failUsage prints one clean message and exits 2 — the flag package's
// convention for command-line mistakes (unknown experiment or scale,
// malformed or conflicting flags).
func failUsage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ecfbench: "+format+"\n", args...)
	os.Exit(2)
}

// newSession builds the run's session from the flags, validating
// combinations and probing the cache dir up front. Every run gets one:
// without a store (-no-cache, or no -cache-dir) it still shares each
// distinct cell's record between the drivers that render it.
func newSession(cacheDir, shardStr string, merge, noCache bool, cellTimeout time.Duration) *results.Session {
	if noCache {
		if shardStr != "" || merge {
			failUsage("-no-cache cannot be combined with -shard or -merge (both need the store)")
		}
		cacheDir = ""
	}
	ses := &results.Session{CellTimeout: cellTimeout, Merge: merge, CollectMisses: merge}
	if cacheDir == "" {
		if shardStr != "" {
			failUsage("-shard requires -cache-dir (a shard's results live in the store)")
		}
		if merge {
			failUsage("-merge requires -cache-dir (it renders from cached records)")
		}
		return ses
	}
	if shardStr != "" && merge {
		failUsage("-shard and -merge are mutually exclusive (merge reads every cell)")
	}
	if shardStr != "" {
		var err error
		ses.Shard, err = results.ParseShard(shardStr)
		if err != nil {
			failUsage("%v", err)
		}
	}
	// Merge only reads, so a read-only store (e.g. another machine's
	// shard output on a read-only mount) is fine; every other mode
	// creates the dir and probes writability up front. A merge collects
	// every missing cell instead of failing on the first, so one pass
	// reports the sweep's complete hole list with the command to
	// backfill it.
	open := results.Open
	if merge {
		open = results.OpenRead
	}
	var err error
	if ses.Store, err = open(cacheDir); err != nil {
		fail("%v", err)
	}
	return ses
}

// reportMissing renders a failed merge's complete hole list on stderr,
// grouped by record family, with the exact commands that backfill the
// missing cells, then exits 1. A plain cached run recomputes exactly
// the missing cells (hits are served from the store), so the backfill
// command is the ordinary sweep invocation — sharded or coordinated
// for multi-machine backfills.
func reportMissing(ses *results.Session, cacheDir, scaleName string) {
	miss := ses.MissingCells()
	type family struct {
		exp    string
		scale  string
		schema int
	}
	order := []family{}
	cells := map[family][]int{}
	for _, k := range miss {
		f := family{k.Experiment, k.Scale, k.Schema}
		if _, seen := cells[f]; !seen {
			order = append(order, f)
		}
		cells[f] = append(cells[f], k.Cell)
	}
	fmt.Fprintf(os.Stderr, "ecfbench: merge incomplete: %d cells missing across %d record families:\n", len(miss), len(order))
	for _, f := range order {
		idx := cells[f]
		list := ""
		for i, c := range idx {
			if i == 16 {
				list += fmt.Sprintf(" ... (+%d more)", len(idx)-i)
				break
			}
			if i > 0 {
				list += " "
			}
			list += strconv.Itoa(c)
		}
		fmt.Fprintf(os.Stderr, "  %s (schema %d, scale %q): %d cells: %s\n", f.exp, f.schema, f.scale, len(idx), list)
	}
	fmt.Fprintf(os.Stderr, "backfill, then re-run -merge:\n")
	fmt.Fprintf(os.Stderr, "  one machine:   ecfbench -exp all -scale %s -cache-dir %s   (computes only the missing cells)\n", scaleName, cacheDir)
	fmt.Fprintf(os.Stderr, "  N machines:    ecfbench -exp all -scale %s -cache-dir %s -shard i/N   (i = 0..N-1, then rsync the stores)\n", scaleName, cacheDir)
	fmt.Fprintf(os.Stderr, "  coordinated:   ecfd serve -cache-dir %s -scale %s -addr :7468  +  ecfbench -join <host>:7468 per worker\n", cacheDir, scaleName)
	os.Exit(1)
}

// runExperiment executes one driver, converting *results.FatalError
// panics (store I/O failures, merge misses) into errors for a clean
// exit; any other panic propagates with its stack.
func runExperiment(e experiments.Experiment, sc experiments.Scale) (out fmt.Stringer, err error) {
	defer func() {
		if v := recover(); v != nil {
			var fe *results.FatalError
			if pe, ok := v.(error); ok && errors.As(pe, &fe) {
				err = fe
				return
			}
			panic(v)
		}
	}()
	return e.Run(sc), nil
}

// cachePrune implements -cache-prune: enumerate the active matrix (the
// cell families a full catalog run at the given scale would read) by
// driving every driver through an enumerating session — no simulation,
// no store reads — then delete the store's other families. With
// -older-than it additionally drops records inside the active matrix
// that have not been rewritten within the given age. The audit half of
// this lifecycle is -cache-stats.
func cachePrune(cacheDir string, sc experiments.Scale, olderThan time.Duration, dryRun bool) {
	open := results.Open
	if dryRun {
		open = results.OpenRead // a preview must work on read-only stores
	}
	store, err := open(cacheDir)
	if err != nil {
		fail("%v", err)
	}
	keep := make(map[results.Spec]bool)
	for _, f := range experiments.EnumerateCells(sc) {
		keep[f.Spec] = true
	}
	rep, err := store.Prune(results.PruneOptions{
		Keep:      func(g results.Spec) bool { return keep[g] },
		OlderThan: olderThan,
		DryRun:    dryRun,
	})
	if err != nil {
		fail("pruning %s: %v", cacheDir, err)
	}
	verb := "deleted"
	if dryRun {
		verb = "would delete"
	}
	if len(rep.Deleted) == 0 && len(rep.Aged) == 0 {
		fmt.Printf("cache dir %s: nothing to prune (%d records in the active matrix)\n", cacheDir, rep.KeptRecords)
		return
	}
	printGroups := func(lines []results.AuditLine) {
		w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
		fmt.Fprintln(w, "EXPERIMENT\tSCALE\tSCHEMA\tRECORDS\tBYTES")
		for _, line := range lines {
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", line.Experiment, line.Scale, line.Schema, line.Records, line.Bytes)
		}
		w.Flush()
	}
	if len(rep.Deleted) > 0 {
		fmt.Printf("cache dir %s: %s %d records (%d bytes) outside the active matrix:\n",
			cacheDir, verb, rep.DeletedRecords(), rep.DeletedBytes())
		printGroups(rep.Deleted)
	}
	if len(rep.Aged) > 0 {
		fmt.Printf("cache dir %s: %s %d records (%d bytes) older than %v inside the active matrix:\n",
			cacheDir, verb, rep.AgedRecords(), rep.AgedBytes(), olderThan)
		printGroups(rep.Aged)
	}
	fmt.Printf("kept: %d records, %d bytes", rep.KeptRecords, rep.KeptBytes)
	if rep.Unreadable > 0 {
		fmt.Printf(", %d unreadable files left in place", rep.Unreadable)
	}
	fmt.Println()
}

// cacheStats renders the -cache-stats audit: what occupies the store,
// grouped by (experiment, scale, schema) — the granularity at which
// records go stale.
func cacheStats(cacheDir string) {
	store, err := results.OpenRead(cacheDir)
	if err != nil {
		fail("%v", err)
	}
	rep, err := store.Audit()
	if err != nil {
		fail("auditing %s: %v", cacheDir, err)
	}
	fmt.Printf("cache dir %s:\n", cacheDir)
	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "EXPERIMENT\tSCALE\tSCHEMA\tRECORDS\tBYTES")
	for _, line := range rep.Lines {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", line.Experiment, line.Scale, line.Schema, line.Records, line.Bytes)
	}
	w.Flush()
	fmt.Printf("total: %d records, %d bytes", rep.Records, rep.Bytes)
	if rep.Unreadable > 0 {
		fmt.Printf(", %d unreadable files", rep.Unreadable)
	}
	fmt.Println()
}

// createProfile opens a profile output file, refusing to clobber an
// existing one unless -force was given — an interrupted run leaves a
// valid profile behind, and silently truncating it on the next
// invocation has destroyed real data before.
func createProfile(flagName, path string, force bool) *os.File {
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if os.IsExist(err) {
			fail("%s: %s already exists; use -force to overwrite", flagName, path)
		}
		fail("%s: %v", flagName, err)
	}
	return f
}

// profiling starts the -cpuprofile collection and returns a function
// that finalizes both profiles; the caller must run it before exiting
// normally (error exits skip profiles, except under -join, whose errors
// come back to main). The heap profile destination is
// opened up front so a clobber refusal aborts before hours of
// simulation, not after.
func profiling(cpu, mem string, force bool) func() {
	var cpuFile, memFile *os.File
	if cpu != "" {
		f := createProfile("-cpuprofile", cpu, force)
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-cpuprofile: %v", err)
		}
		cpuFile = f
	}
	if mem != "" {
		memFile = createProfile("-memprofile", mem, force)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memFile != nil {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fail("-memprofile: %v", err)
			}
			memFile.Close()
		}
	}
}

// parseTraceCell splits the -trace-cell argument at its LAST slash:
// cell family names themselves contain slashes ("grid/ecf",
// "grid/ecf/no-reset"), so "grid/ecf/14" means cell 14 of "grid/ecf".
func parseTraceCell(s string) (experiment string, cell int, err error) {
	i := strings.LastIndex(s, "/")
	if i <= 0 || i == len(s)-1 {
		return "", 0, fmt.Errorf("-trace-cell %q: want \"family/index\", e.g. grid/ecf/14 (the index follows the last '/')", s)
	}
	cell, err = strconv.Atoi(s[i+1:])
	if err != nil || cell < 0 {
		return "", 0, fmt.Errorf("-trace-cell %q: cell index %q is not a non-negative integer", s, s[i+1:])
	}
	return s[:i], cell, nil
}

// progressPrinter renders -progress lines on stderr: cells done/total,
// completion rate, and an ETA extrapolated from the running batch.
// Rate-limited so huge sweeps don't flood the terminal; the final cell
// of every batch always prints so the 100% line is never dropped.
type progressPrinter struct {
	mu       sync.Mutex
	start    time.Time
	last     time.Time
	lastDone int
	total    int
}

// note is the runner.Pool.OnProgress callback (via Scale.Progress). It
// observes only; it never touches result state.
func (p *progressPrinter) note(done, total int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if total != p.total || done < p.lastDone {
		// A new batch started (drivers run several per experiment).
		p.start, p.last = now, time.Time{}
		p.total = total
	}
	p.lastDone = done
	if done != total && now.Sub(p.last) < 250*time.Millisecond {
		return
	}
	p.last = now
	line := fmt.Sprintf("progress: %d/%d cells", done, total)
	elapsed := now.Sub(p.start)
	if sec := elapsed.Seconds(); sec > 0.001 && done > 0 {
		line += fmt.Sprintf(" (%.0f cells/s", float64(done)/sec)
		if done < total {
			eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			line += fmt.Sprintf(", ETA %v", eta.Round(time.Second))
		}
		line += ")"
	}
	fmt.Fprintln(os.Stderr, line)
}

// startDebugServer mounts net/http/pprof plus a /debug/obs counter
// snapshot on addr and serves in the background for the life of the
// run. The listener is opened synchronously so a bad address fails
// before any simulation starts.
func startDebugServer(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail("-debug-addr: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		processed, coalesced := sim.TotalEvents()
		snap := map[string]any{
			"events_processed":  processed,
			"events_by_kind":    eventsByKind(sim.TotalEventsByKind(), nil),
			"events_coalesced":  coalesced,
			"events_total":      processed + coalesced,
			"packets_delivered": netsim.TotalDelivered(),
			"goroutines":        runtime.NumGoroutine(),
			"trace_armed":       obs.TraceEnabled(),
			"mem":               obs.CaptureMemStats(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ (counters at /debug/obs)\n", ln.Addr())
	go func() { _ = http.Serve(ln, mux) }()
}

// writeTrace exports the captured cell recorder: a Chrome trace-event
// JSON file (load in Perfetto or chrome://tracing) and optionally a
// human-readable per-transfer scheduler decision log. Both destinations
// were opened (clobber-guarded) before the run started.
func writeTrace(traceFile, decsFile *os.File) {
	rec := obs.CapturedCell()
	if rec == nil {
		fail("-trace-cell: the selected cell never ran — check the family name and index against the chosen -exp and -scale (and any -shard); the index follows the LAST '/', e.g. grid/ecf/14 is cell 14 of family \"grid/ecf\"")
	}
	kindName := func(k uint8) string {
		if n := sim.KindName(sim.EventKind(k)); n != "" {
			return n
		}
		return fmt.Sprintf("kind-%d", k)
	}
	if err := rec.WriteChromeTrace(traceFile, kindName); err != nil {
		traceFile.Close()
		fail("-trace-out: %v", err)
	}
	if err := traceFile.Close(); err != nil {
		fail("-trace-out: %v", err)
	}
	fmt.Fprintf(os.Stderr,
		"trace: cell %s/%d — %d engine events (%d overwritten), %d packet events (%d overwritten), %d subflow events (%d overwritten), %d decisions (%d overwritten) → %s\n",
		rec.Experiment, rec.Cell,
		rec.Flight.Total(), rec.Flight.Dropped(),
		rec.Packets.Total(), rec.Packets.Dropped(),
		rec.Subflows.Total(), rec.Subflows.Dropped(),
		rec.Decisions.Total(), rec.Decisions.Dropped(),
		traceFile.Name())
	if decsFile == nil {
		return
	}
	if err := rec.WriteDecisionLog(decsFile); err != nil {
		decsFile.Close()
		fail("-decisions-out: %v", err)
	}
	if err := decsFile.Close(); err != nil {
		fail("-decisions-out: %v", err)
	}
	fmt.Fprintf(os.Stderr, "decision log: %d decisions → %s\n", rec.Decisions.Total(), decsFile.Name())
}

// eventLine renders the per-run event telemetry: how many logical
// simulation events fired, how many of those were coalesced into a
// preceding dispatch instead of going through the heap, and the
// events-per-delivered-packet ratio — the event-count regression signal
// the batching work optimizes. Cells served from the result cache
// simulate nothing, so a fully warm run reports "0 events" and the
// ratio is suppressed rather than divided by zero.
func eventLine(processed, coalesced uint64, delivered int64) string {
	events := processed + coalesced
	s := fmt.Sprintf("%d events (%d coalesced)", events, coalesced)
	if delivered > 0 {
		s += fmt.Sprintf(", %.2f events/pkt", float64(events)/float64(delivered))
	}
	return s
}

// eventsByKind names the non-zero entries of sim.TotalEventsByKind since
// the earlier snapshot before (nil: since process start).
func eventsByKind(now, before []uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for k, n := range now {
		if k < len(before) {
			n -= before[k]
		}
		if n != 0 {
			out[sim.KindName(sim.EventKind(k))] = n
		}
	}
	return out
}

// cellCounts is where a run's cells came from so far: the session's
// in-memory records, its store, or a simulation.
type cellCounts struct{ memory, store, computed int64 }

func countCells(ses *results.Session) cellCounts {
	hits, computed := ses.Stats()
	memory := ses.MemoryHits()
	return cellCounts{memory, hits - memory, computed}
}

func (c cellCounts) since(c0 cellCounts) cellCounts {
	return cellCounts{c.memory - c0.memory, c.store - c0.store, c.computed - c0.computed}
}

// String renders "cells: M memory + S store hits, C computed (P% hit)";
// with no cells at all there is no rate to report.
func (c cellCounts) String() string {
	s := fmt.Sprintf("cells: %d memory + %d store hits, %d computed", c.memory, c.store, c.computed)
	if total := c.memory + c.store + c.computed; total > 0 {
		s += fmt.Sprintf(" (%d%% hit)", (c.memory+c.store)*100/total)
	}
	return s
}

// The command line; package-level so that startRun and its test read
// the parsed flags directly.
var (
	expName   = flag.String("exp", "", "experiment to run (see -list), or \"all\"")
	scale     = flag.String("scale", "full", "scale profile: full or quick")
	list      = flag.Bool("list", false, "list experiments and exit")
	jobs      = flag.Int("j", 0, "worker count for the simulation matrix (0 = GOMAXPROCS); results are identical for any value")
	cacheDir  = flag.String("cache-dir", "", "persist per-cell results under this directory (created if missing); reruns serve unchanged cells from it")
	shardStr  = flag.String("shard", "", "run only cells with index%n == i, given as \"i/n\" (requires -cache-dir; join shards with -merge)")
	merge     = flag.Bool("merge", false, "assemble the report purely from cached records, simulating nothing (requires -cache-dir)")
	noCache   = flag.Bool("no-cache", false, "ignore -cache-dir: neither read nor write the store (a cell several experiments render is still simulated once per run)")
	stats     = flag.Bool("cache-stats", false, "audit -cache-dir: list experiments/scales/schema versions occupying the store, then exit")
	prune     = flag.Bool("cache-prune", false, "delete record groups in -cache-dir that a full catalog run at the given -scale would no longer read, then exit")
	olderThan = flag.Duration("older-than", 0, "with -cache-prune: also delete records inside the active matrix not rewritten within this age (e.g. 720h)")
	dryRun    = flag.Bool("dry-run", false, "with -cache-prune: report what would be deleted without removing anything")
	cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	force     = flag.Bool("force", false, "allow -cpuprofile/-memprofile/-trace-out/-decisions-out/-report-json to overwrite an existing file")
	traceCell = flag.String("trace-cell", "", "flight-record one simulation cell, given as \"family/index\" with the index after the LAST '/' (e.g. grid/ecf/14); requires -exp and -trace-out")
	traceOut  = flag.String("trace-out", "", "write the traced cell's Chrome trace-event JSON (Perfetto/chrome://tracing) to this file (requires -trace-cell)")
	decsOut   = flag.String("decisions-out", "", "also write the traced cell's per-transfer scheduler decision log to this file (requires -trace-cell)")
	reportOut = flag.String("report-json", "", "write a machine-readable run report (per-experiment wall clock, cache/event counters, output hashes, heap stats) to this file")
	debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and a /debug/obs counter snapshot on this address (e.g. localhost:6060) for the life of the run")
	progress  = flag.Bool("progress", false, "report cells completed/total with rate and ETA on stderr while sweeps run")
	joinAddr  = flag.String("join", "", "join the ecfd coordinator at this host:port as a lease-loop worker (the coordinator dictates the scale)")
	workerID  = flag.String("worker-id", "", "worker identity for -join leases and logs (default hostname-pid)")
	cellTO    = flag.Duration("cell-timeout", 0, "per-cell wall-clock budget; a cell exceeding it fails loudly naming the experiment and cell index (0 = no deadline)")
)

// outputs are a run's open profile and artifact destinations.
type outputs struct {
	stopProfiles             func()
	trace, decisions, report *os.File
}

// startRun resolves -list, -exp and -scale, builds the session, and
// only then opens the profile and artifact destinations under the
// clobber guard — a refusal (or an unwritable path) still aborts before
// hours of simulation, while a usage error (returned here, or exited on
// inside newSession) never creates or truncates a file. exps is nil
// when the command line asks for the experiment list instead, which
// opens nothing either.
func startRun() (exps []experiments.Experiment, sc experiments.Scale, out outputs, err error) {
	if *list || *expName == "" {
		return
	}
	sc, ok := experiments.ScaleByName(*scale)
	if !ok {
		err = fmt.Errorf("unknown scale %q (full|quick)", *scale)
		return
	}
	if *expName == "all" {
		exps = experiments.Catalog
	} else if e, ok := experiments.ByName(*expName); ok {
		exps = []experiments.Experiment{e}
	} else {
		err = fmt.Errorf("unknown experiment %q; use -list", *expName)
		return
	}
	sc.Workers = *jobs
	sc.Results = newSession(*cacheDir, *shardStr, *merge, *noCache, *cellTO)
	out.stopProfiles = profiling(*cpuProf, *memProf, *force)
	if *traceOut != "" {
		out.trace = createProfile("-trace-out", *traceOut, *force)
	}
	if *decsOut != "" {
		out.decisions = createProfile("-decisions-out", *decsOut, *force)
	}
	if *reportOut != "" {
		out.report = createProfile("-report-json", *reportOut, *force)
	}
	return
}

func main() {
	flag.Parse()

	if *cellTO < 0 {
		failUsage("-cell-timeout must be a positive duration")
	}
	if *joinAddr != "" {
		// Join mode is a worker loop: the coordinator owns the sweep
		// definition, so flags that define or render a local sweep
		// conflict with it.
		conflicts := map[string]string{
			"exp": "the coordinator sweeps the full catalog", "scale": "the coordinator dictates the scale",
			"shard": "leases replace shards", "merge": "render from the coordinator's store after the sweep",
			"no-cache": "join mode decides store use itself", "cache-stats": "runs alone", "cache-prune": "runs alone",
			"trace-cell": "trace on a local run instead", "trace-out": "trace on a local run instead",
			"decisions-out": "trace on a local run instead", "report-json": "reports cover local runs",
		}
		flag.Visit(func(f *flag.Flag) {
			if why, bad := conflicts[f.Name]; bad {
				failUsage("-join cannot be combined with -%s (%s)", f.Name, why)
			}
		})
		stopProfiles := profiling(*cpuProf, *memProf, *force)
		if *debugAddr != "" {
			startDebugServer(*debugAddr)
		}
		err := runJoin(*joinAddr, *jobs, *cacheDir, *cellTO, *workerID, *progress)
		// A failed worker is the one whose profile is wanted most.
		stopProfiles()
		if err != nil {
			fail("-join %s: %v", *joinAddr, err)
		}
		return
	}

	if *traceOut != "" && *traceCell == "" {
		failUsage("-trace-out requires -trace-cell (nothing records without a target)")
	}
	if *decsOut != "" && *traceCell == "" {
		failUsage("-decisions-out requires -trace-cell (nothing records without a target)")
	}
	var traceExp string
	var traceIdx int
	if *traceCell != "" {
		if *expName == "" {
			failUsage("-trace-cell requires -exp (the experiment whose sweep runs the cell)")
		}
		if *merge {
			failUsage("-trace-cell cannot be combined with -merge (a merge renders from cache and simulates nothing)")
		}
		if *traceOut == "" {
			failUsage("-trace-cell requires -trace-out (the trace has to go somewhere)")
		}
		var err error
		traceExp, traceIdx, err = parseTraceCell(*traceCell)
		if err != nil {
			failUsage("%v", err)
		}
	}

	if *stats {
		if *cacheDir == "" {
			failUsage("-cache-stats requires -cache-dir (it audits the store)")
		}
		if *expName != "" || *shardStr != "" || *merge || *noCache || *prune {
			failUsage("-cache-stats runs alone (no -exp/-shard/-merge/-no-cache/-cache-prune)")
		}
		cacheStats(*cacheDir)
		return
	}
	if *dryRun && !*prune {
		failUsage("-dry-run only applies to -cache-prune")
	}
	if *olderThan != 0 && !*prune {
		failUsage("-older-than only applies to -cache-prune")
	}
	if *olderThan < 0 {
		failUsage("-older-than must be a positive duration")
	}
	if *prune {
		if *cacheDir == "" {
			failUsage("-cache-prune requires -cache-dir (it prunes the store)")
		}
		if *expName != "" || *shardStr != "" || *merge || *noCache {
			failUsage("-cache-prune runs alone (no -exp/-shard/-merge/-no-cache); the active matrix is the full catalog at the given -scale")
		}
		sc, ok := experiments.ScaleByName(*scale)
		if !ok {
			failUsage("unknown scale %q (full|quick)", *scale)
		}
		cachePrune(*cacheDir, sc, *olderThan, *dryRun)
		return
	}
	exps, sc, files, err := startRun()
	if err != nil {
		failUsage("%v", err)
	}
	if exps == nil {
		names := make([]string, 0, len(experiments.Catalog))
		for _, e := range experiments.Catalog {
			names = append(names, fmt.Sprintf("  %-7s %s", e.Name, e.Desc))
		}
		sort.Strings(names)
		fmt.Println("available experiments (-exp <name> | all):")
		fmt.Println(strings.Join(names, "\n"))
		if !*list {
			os.Exit(2)
		}
		return
	}
	defer files.stopProfiles()
	if *progress {
		pp := &progressPrinter{}
		sc.Progress = pp.note
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr)
	}
	if *traceCell != "" {
		// Arm the flight recorder before any cell runs; the matching
		// cell captures itself on the way through results.runCell.
		obs.SetTraceTarget(traceExp, traceIdx)
	}
	var report *obs.RunReport
	var runHash hash.Hash
	if *reportOut != "" {
		workers := sc.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		report = obs.NewRunReport(*scale, workers)
		runHash = sha256.New()
	}
	runStart := time.Now()

	run := func(e experiments.Experiment) {
		cells0 := countCells(sc.Results)
		p0, c0ev := sim.TotalEvents()
		kinds0 := sim.TotalEventsByKind()
		dl0 := netsim.TotalDelivered()
		miss0 := sc.Results.MissingCount()
		start := time.Now()
		out, err := runExperiment(e, sc)
		if err != nil {
			fail("%s: %v", e.Name, err)
		}
		sharded := sc.Results.Sharded()
		var block string
		if sharded {
			// A shard pass fills the store; its result structures are
			// partial, so the report is rendered by -merge instead.
			block = fmt.Sprintf("=== %s (%s) — shard %s cached, render with -merge ===\n", e.Name, e.Desc, sc.Results.Shard)
		} else if missed := sc.Results.MissingCount() - miss0; missed > 0 {
			// A merge that found holes: the result structures are
			// partial, so nothing is rendered for this experiment —
			// the run ends with the full grouped hole report and exit 1.
			fmt.Fprintf(os.Stderr, "ecfbench: %s: %d cells missing from the store; block suppressed\n", e.Name, missed)
		} else {
			block = fmt.Sprintf("=== %s (%s) ===\n%s\n", e.Name, e.Desc, out)
		}
		if _, err := os.Stdout.WriteString(block); err != nil {
			fail("writing stdout: %v", err)
		}
		elapsed := time.Since(start)
		cells := countCells(sc.Results).since(cells0)
		p1, c1ev := sim.TotalEvents()
		dl1 := netsim.TotalDelivered()
		if report != nil {
			runHash.Write([]byte(block))
			sum := sha256.Sum256([]byte(block))
			er := obs.ExperimentReport{
				Name:             e.Name,
				Description:      e.Desc,
				WallClockMs:      float64(elapsed.Nanoseconds()) / 1e6,
				CacheHits:        cells.memory + cells.store,
				CacheComputed:    cells.computed,
				EventsProcessed:  p1 - p0,
				EventsByKind:     eventsByKind(sim.TotalEventsByKind(), kinds0),
				EventsCoalesced:  c1ev - c0ev,
				EventsTotal:      (p1 - p0) + (c1ev - c0ev),
				PacketsDelivered: dl1 - dl0,
				Sharded:          sharded,
				OutputBytes:      len(block),
				OutputSHA256:     hex.EncodeToString(sum[:]),
			}
			er.SetCellDurations(sc.Results.TakeCellDurations())
			report.Experiments = append(report.Experiments, er)
		}
		fmt.Fprintf(os.Stderr, "%s: %v, %v, %s\n", e.Name, elapsed.Round(time.Millisecond), cells, eventLine(p1-p0, c1ev-c0ev, dl1-dl0))
	}

	for _, e := range exps {
		run(e)
	}
	if *expName == "all" {
		pAll, cAll := sim.TotalEvents()
		fmt.Fprintf(os.Stderr, "all %d experiments: %v total, %v, %s\n", len(exps), time.Since(runStart).Round(time.Millisecond),
			countCells(sc.Results), eventLine(pAll, cAll, netsim.TotalDelivered()))
	}

	if *merge && sc.Results.MissingCount() > 0 {
		// Every experiment ran, so the hole list is complete — one
		// report covers the whole sweep instead of dying on the first
		// missing cell.
		reportMissing(sc.Results, *cacheDir, *scale)
	}

	qs := sim.TotalQueueStats()
	fmt.Fprintf(os.Stderr, "queue: depth max %d mean %.1f\n", qs.DepthMax, qs.DepthMean())

	if *traceCell != "" {
		writeTrace(files.trace, files.decisions)
	}
	if report != nil {
		report.WallClockMs = float64(time.Since(runStart).Nanoseconds()) / 1e6
		report.OutputSHA256 = hex.EncodeToString(runHash.Sum(nil))
		report.Queue = obs.QueueReport{DepthMax: qs.DepthMax, DepthMean: qs.DepthMean()}
		report.Mem = obs.CaptureMemStats()
		if err := report.Write(files.report); err != nil {
			fail("-report-json: %v", err)
		}
		if err := files.report.Close(); err != nil {
			fail("-report-json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "run report: %d experiments → %s\n", len(report.Experiments), *reportOut)
	}
}
