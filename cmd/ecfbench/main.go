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
//	ecfbench -cache-dir cache -cache-stats        # audit what occupies the store
//	ecfbench -cache-dir cache -cache-prune -dry-run  # preview stale-group cleanup
//	ecfbench -cache-dir cache -cache-prune        # delete groups no catalog run reads
//	ecfbench -exp fig9 -cpuprofile cpu.pprof      # profile a run (also -memprofile)
//	ecfbench -trace-cell grid/ecf/14 -trace-out trace.json -scale quick  # flight-record one cell
//	ecfbench -exp all -debug-addr localhost:6060  # live pprof + counter snapshot
//
// A run is plan, then render: the selected experiments register the
// cells they read on one plan, one pool of -j workers runs each distinct
// cell once, and then each experiment prints the same rows/series the
// paper reports (see README.md for the experiment index) on stdout, in
// catalog order. Render times and the run's one summary — its cell,
// cache, event, event-kind and queue statistics — go to stderr, so
// stdout is byte-identical for any -j value and for cold vs. warm cache
// runs. -cache-dir persists every simulation cell's record keyed by
// (experiment, cell, scale, schema); -shard i/n simulates only the
// cells with index%n == i (for splitting a sweep across machines);
// -merge renders everything from cached records alone, prints no block
// of an experiment that reads a missing cell, and fails listing every
// missing cell, grouped by record family, with the exact command to
// backfill them. -join turns the process
// into a lease-loop worker for a `ecfd serve` coordinator: claim a
// batch of cells, simulate, upload, heartbeat — with retry/backoff on
// every RPC and work-stealing semantics when a worker dies (see
// internal/coord).
//
// A command line is parsed into one config, validated, and run in
// exactly one mode. modeFlags, the mode table, names the flags each mode
// reads; any other flag set on the command line, or a positional
// argument, is a usage error:
//
//	join         -join: -j -cache-dir -worker-id -cpuprofile -memprofile -force -debug-addr
//	cache-stats  -cache-stats: -cache-dir
//	cache-prune  -cache-prune: -cache-dir -dry-run
//	trace        -trace-cell: -trace-out -decisions-out -scale -force
//	render       -exp: -scale -j -cache-dir -shard -merge -no-cache -cpuprofile -memprofile -force -debug-addr
//	list         -list, or no -exp: what render reads (the catalog is printed in place of a render)
//
// A trace simulates its one cell as a catalog run at -scale would,
// outside any store, writes the recorder's artifacts and renders
// nothing. Usage errors — for a trace, also a family or an index the
// catalog does not run at that scale — exit 2 before any file is
// created; operational failures (store I/O, merge misses, clobber
// refusals, a failed cell) exit 1, and a traced cell that fails writes
// its artifacts first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/results"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: parse and validate args, run the chosen
// mode, and map the outcome to an exit code — 0, 2 for a usage error, 1
// for anything else — printing a failure's message once.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parse(args, stderr)
	if err == nil {
		err = c.run(stdout, stderr)
	}
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if msg := err.Error(); msg != "" {
		fmt.Fprintf(stderr, "ecfbench: %s\n", msg)
	}
	var usage usageError
	if errors.As(err, &usage) {
		return 2
	}
	return 1
}

// usageError is a command-line mistake, which exits 2. An empty one has
// already been reported (by the flag package, or by listing the catalog
// in place of a missing -exp).
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// renderFlags are the flags a render reads; see modeFlags.
const renderFlags = "exp scale j cache-dir shard merge no-cache cpuprofile memprofile force debug-addr"

// modeFlags is the mode × flag table: for each mode, the flags it reads.
// A flag set on the command line that the chosen mode does not read is
// a usage error.
var modeFlags = map[string]string{
	"join":        "join j cache-dir worker-id cpuprofile memprofile force debug-addr",
	"cache-stats": "cache-stats cache-dir",
	"cache-prune": "cache-prune cache-dir dry-run",
	"trace":       "trace-cell trace-out decisions-out scale force",
	"list":        "list " + renderFlags,
	"render":      renderFlags,
}

// config is one command line: the flags as parsed, the mode they
// select, and what validate resolves from them.
type config struct {
	exp, scale, cacheDir, shard, cpuProf, memProf     string
	traceCell, traceOut, decsOut, debugAddr           string
	joinAddr, workerID                                string
	list, merge, noCache, stats, prune, dryRun, force bool
	jobs                                              int

	mode string // a modeFlags key

	// Resolved by validate.
	sc       experiments.Scale // trace and render
	exps     []experiments.Experiment
	claims   func(results.Key) bool // -shard's cells; nil: every cell
	traceExp string
	traceIdx int

	// ses is the render's session, kept for the caller to inspect.
	ses *results.Session
}

// parse reads args into a config on a fresh FlagSet, picks the mode and
// validates the result. It opens nothing.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("ecfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.exp, "exp", "", "experiment to run (see -list), or \"all\"")
	fs.StringVar(&c.scale, "scale", "full", "scale profile: full or quick")
	fs.BoolVar(&c.list, "list", false, "list experiments and exit")
	fs.IntVar(&c.jobs, "j", 0, "worker count for the simulation matrix (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&c.cacheDir, "cache-dir", "", "persist per-cell results under this directory (created if missing); reruns serve unchanged cells from it")
	fs.StringVar(&c.shard, "shard", "", "run only cells with index%n == i, given as \"i/n\" (requires -cache-dir; join shards with -merge)")
	fs.BoolVar(&c.merge, "merge", false, "assemble the report purely from cached records, simulating nothing (requires -cache-dir)")
	fs.BoolVar(&c.noCache, "no-cache", false, "ignore -cache-dir: neither read nor write the store (a cell several experiments render is still simulated once per run)")
	fs.BoolVar(&c.stats, "cache-stats", false, "audit -cache-dir: list experiments/scales/schema versions occupying the store, then exit")
	fs.BoolVar(&c.prune, "cache-prune", false, "delete record groups in -cache-dir that no catalog run, at either scale, would read, then exit")
	fs.BoolVar(&c.dryRun, "dry-run", false, "with -cache-prune: report what would be deleted without removing anything")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.BoolVar(&c.force, "force", false, "allow -cpuprofile/-memprofile/-trace-out/-decisions-out to overwrite an existing file")
	fs.StringVar(&c.traceCell, "trace-cell", "", "flight-record one simulation cell at -scale, given as \"family/index\" with the index after the LAST '/' (e.g. grid/ecf/14), and render nothing; requires -trace-out")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the traced cell's Chrome trace-event JSON (Perfetto/chrome://tracing) to this file (requires -trace-cell)")
	fs.StringVar(&c.decsOut, "decisions-out", "", "also write the traced cell's per-transfer scheduler decision log to this file (requires -trace-cell)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof and a /debug/obs counter snapshot on this address (e.g. localhost:6060) for the life of the run")
	fs.StringVar(&c.joinAddr, "join", "", "join the ecfd coordinator at this host:port as a lease-loop worker (the coordinator dictates the scale)")
	fs.StringVar(&c.workerID, "worker-id", "", "worker identity for -join leases and logs (default hostname-pid)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, usageError("") // the flag package printed it, with the defaults
	}
	if fs.NArg() > 0 {
		return nil, usagef("unexpected argument %q (flags after it would be ignored)", fs.Arg(0))
	}
	switch {
	case c.joinAddr != "":
		c.mode = "join"
	case c.stats:
		c.mode = "cache-stats"
	case c.prune:
		c.mode = "cache-prune"
	case c.traceCell != "":
		c.mode = "trace"
	case c.list || c.exp == "":
		c.mode = "list"
	default:
		c.mode = "render"
	}
	reads := strings.Fields(modeFlags[c.mode])
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !slices.Contains(reads, f.Name) {
			err = usagef("-%s does not apply to %s mode (it reads -%s)", f.Name, c.mode, strings.Join(reads, " -"))
		}
	})
	if err != nil {
		return nil, err
	}
	return c, c.validate()
}

// validate applies the value rules beside the mode table and resolves
// what the mode needs: the scale, the experiments, the shard, the traced
// cell.
func (c *config) validate() error {
	switch {
	case c.jobs < 0:
		return usagef("-j %d: want a worker count >= 0 (0 = GOMAXPROCS)", c.jobs)
	case c.cacheDir == "" && (c.mode == "cache-stats" || c.mode == "cache-prune"):
		return usagef("-%s requires -cache-dir (it reads the store)", c.mode)
	case c.mode == "trace" && c.traceOut == "":
		return usagef("-trace-cell requires -trace-out (the trace has to go somewhere)")
	}
	if c.mode == "trace" {
		var err error
		if c.traceExp, c.traceIdx, err = parseTraceCell(c.traceCell); err != nil {
			return usageError(err.Error())
		}
	}
	if c.mode != "trace" && c.mode != "render" {
		return nil
	}
	var ok bool
	if c.sc, ok = experiments.ScaleByName(c.scale); !ok {
		return usagef("unknown scale %q (full|quick)", c.scale)
	}
	if c.mode != "render" {
		return nil
	}
	if c.exp == "all" {
		c.exps = experiments.Catalog
	} else if e, ok := experiments.ByName(c.exp); ok {
		c.exps = []experiments.Experiment{e}
	} else {
		return usagef("unknown experiment %q; use -list", c.exp)
	}
	switch {
	case c.noCache && (c.shard != "" || c.merge):
		return usagef("-no-cache cannot be combined with -shard or -merge (both need the store)")
	case c.shard != "" && c.cacheDir == "":
		return usagef("-shard requires -cache-dir (a shard's results live in the store)")
	case c.merge && c.cacheDir == "":
		return usagef("-merge requires -cache-dir (it renders from cached records)")
	case c.shard != "" && c.merge:
		return usagef("-shard and -merge are mutually exclusive (merge reads every cell)")
	case c.shard != "":
		i, n, err := parseShard(c.shard)
		if err != nil {
			return usageError(err.Error())
		}
		c.shard = fmt.Sprintf("%d/%d", i, n) // as the shard placeholders print it
		if n > 1 {
			c.claims = func(k results.Key) bool { return k.Cell%n == i }
		}
	}
	return nil
}

// parseShard parses the -shard syntax "i/n" with 0 <= i < n.
func parseShard(s string) (i, n int, err error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q: want \"i/n\" (e.g. 0/2)", s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(cnt)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard %q: want \"i/n\" with 0 <= i < n", s)
	}
	return i, n, nil
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

// run executes the config's one mode. A join or a render runs under
// the profiles and the debug server, which are opened first — so a
// clobber refusal or a bad address aborts before any simulation — and
// finalized however the run ends: a failed run is the one whose profile
// is wanted most.
func (c *config) run(stdout, stderr io.Writer) (err error) {
	switch c.mode {
	case "cache-stats":
		return cacheStats(stdout, c.cacheDir)
	case "cache-prune":
		return cachePrune(stdout, c.cacheDir, c.dryRun)
	case "trace":
		return c.trace(stderr)
	case "list":
		names := make([]string, 0, len(experiments.Catalog))
		for _, e := range experiments.Catalog {
			names = append(names, fmt.Sprintf("  %-7s %s", e.Name, e.Desc))
		}
		sort.Strings(names)
		fmt.Fprintln(stdout, "available experiments (-exp <name> | all):")
		fmt.Fprintln(stdout, strings.Join(names, "\n"))
		if !c.list {
			return usageError("") // no -exp: the list is the answer, but the run failed
		}
		return nil
	}
	stopProfiles, err := c.profiling()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()
	if c.debugAddr != "" {
		stop, err := startDebugServer(c.debugAddr, stderr)
		if err != nil {
			return err
		}
		defer stop()
	}
	if c.mode == "join" {
		if err := c.join(stderr); err != nil {
			return fmt.Errorf("-join %s: %w", c.joinAddr, err)
		}
		return nil
	}
	return c.render(stdout, stderr)
}

// missingError renders a failed merge's complete hole list, grouped by
// record family, with the exact commands that backfill the missing
// cells. A plain cached run recomputes exactly the missing cells (hits
// are served from the store), so the backfill command is the ordinary
// sweep invocation — sharded or coordinated for multi-machine backfills.
func missingError(ses *results.Session, cacheDir, scaleName string) error {
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
	var b strings.Builder
	fmt.Fprintf(&b, "merge incomplete: %d cells missing across %d record families:\n", len(miss), len(order))
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
		fmt.Fprintf(&b, "  %s (schema %d, scale %q): %d cells: %s\n", f.exp, f.schema, f.scale, len(idx), list)
	}
	fmt.Fprintf(&b, "backfill, then re-run -merge:\n")
	fmt.Fprintf(&b, "  one machine:   ecfbench -exp all -scale %s -cache-dir %s   (computes only the missing cells)\n", scaleName, cacheDir)
	fmt.Fprintf(&b, "  N machines:    ecfbench -exp all -scale %s -cache-dir %s -shard i/N   (i = 0..N-1, then rsync the stores)\n", scaleName, cacheDir)
	fmt.Fprintf(&b, "  coordinated:   ecfd serve -cache-dir %s -scale %s -addr :7468  +  ecfbench -join <host>:7468 per worker", cacheDir, scaleName)
	return errors.New(b.String())
}

// cachePrune implements -cache-prune: enumerate the active matrix (the
// cell families a catalog run at either scale reads) by planning the
// catalog (experiments.EnumerateCells) — no simulation, no store reads —
// then delete the store's other families. Sweeps at both scales may
// share one store, so neither scale's records are stale to the other.
// The audit half of this lifecycle is -cache-stats.
func cachePrune(w io.Writer, cacheDir string, dryRun bool) error {
	open := results.Open
	if dryRun {
		open = results.OpenRead // a preview must work on read-only stores
	}
	store, err := open(cacheDir)
	if err != nil {
		return err
	}
	keep := make(map[results.Spec]bool)
	for _, sc := range []experiments.Scale{experiments.Full, experiments.Quick} {
		for _, f := range experiments.EnumerateCells(sc) {
			keep[f.Spec] = true
		}
	}
	rep, err := store.Prune(results.PruneOptions{
		Keep:   func(g results.Spec) bool { return keep[g] },
		DryRun: dryRun,
	})
	if err != nil {
		return fmt.Errorf("pruning %s: %w", cacheDir, err)
	}
	if len(rep.Deleted) == 0 {
		fmt.Fprintf(w, "cache dir %s: nothing to prune (%d records in the active matrix)\n", cacheDir, rep.KeptRecords)
		return nil
	}
	verb := "deleted"
	if dryRun {
		verb = "would delete"
	}
	fmt.Fprintf(w, "cache dir %s: %s %d records (%d bytes) outside the active matrix:\n",
		cacheDir, verb, rep.DeletedRecords(), rep.DeletedBytes())
	printGroups(w, rep.Deleted)
	fmt.Fprintf(w, "kept: %d records, %d bytes", rep.KeptRecords, rep.KeptBytes)
	if rep.Unreadable > 0 {
		fmt.Fprintf(w, ", %d unreadable files left in place", rep.Unreadable)
	}
	fmt.Fprintln(w)
	return nil
}

// printGroups renders audit lines as the store-listing table.
func printGroups(w io.Writer, lines []results.AuditLine) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "EXPERIMENT\tSCALE\tSCHEMA\tRECORDS\tBYTES")
	for _, line := range lines {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\n", line.Experiment, line.Scale, line.Schema, line.Records, line.Bytes)
	}
	tw.Flush()
}

// cacheStats renders the -cache-stats audit: what occupies the store,
// grouped by (experiment, scale, schema) — the granularity at which
// records go stale.
func cacheStats(w io.Writer, cacheDir string) error {
	store, err := results.OpenRead(cacheDir)
	if err != nil {
		return err
	}
	rep, err := store.Audit()
	if err != nil {
		return fmt.Errorf("auditing %s: %w", cacheDir, err)
	}
	fmt.Fprintf(w, "cache dir %s:\n", cacheDir)
	printGroups(w, rep.Lines)
	fmt.Fprintf(w, "total: %d records, %d bytes", rep.Records, rep.Bytes)
	if rep.Unreadable > 0 {
		fmt.Fprintf(w, ", %d unreadable files", rep.Unreadable)
	}
	fmt.Fprintln(w)
	return nil
}

// createFile opens an output file, refusing to clobber an existing one
// unless -force was given — an interrupted run leaves a valid profile
// behind, and silently truncating it on the next invocation has
// destroyed real data before. An empty path opens nothing (nil).
func createFile(flagName, path string, force bool) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if os.IsExist(err) {
		return nil, fmt.Errorf("%s: %s already exists; use -force to overwrite", flagName, path)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", flagName, err)
	}
	return f, nil
}

// profiling starts the -cpuprofile collection and returns a function
// that finalizes both profiles. The heap profile destination is opened
// up front so a clobber refusal aborts before hours of simulation, not
// after.
func (c *config) profiling() (stop func() error, err error) {
	cpuFile, err := createFile("-cpuprofile", c.cpuProf, c.force)
	if err != nil {
		return nil, err
	}
	memFile, err := createFile("-memprofile", c.memProf, c.force)
	if err != nil {
		cpuFile.Close() // a nil *os.File closes as a no-op error
		return nil, err
	}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			memFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memFile == nil {
			return nil
		}
		defer memFile.Close()
		runtime.GC() // materialize the final live set
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}

// startDebugServer serves debugMux on addr in the background until
// stop is called; run stops it when it returns, so the server lives as
// long as the run. The listener is opened synchronously so a bad
// address fails before any simulation starts, and stop returns only
// once the address refuses connections and the serving goroutine has
// ended.
func startDebugServer(addr string, stderr io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	fmt.Fprintf(stderr, "debug server on http://%s/debug/pprof/ (counters at /debug/obs)\n", ln.Addr())
	srv := &http.Server{Handler: debugMux()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return func() {
		_ = srv.Close() // the run is over: a close error changes nothing it reports
		_ = ln.Close()  // srv.Close misses a listener Serve has not tracked yet
		<-done
	}, nil
}

// debugMux is the -debug-addr handler: net/http/pprof plus a
// /debug/obs snapshot of the process's event, packet and memory
// counters.
func debugMux() *http.ServeMux {
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
			"mem":               memStats(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// memStats is /debug/obs's heap and GC snapshot.
func memStats() map[string]any {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return map[string]any{
		"heap_alloc_bytes":  m.HeapAlloc,
		"total_alloc_bytes": m.TotalAlloc,
		"sys_bytes":         m.Sys,
		"num_gc":            m.NumGC,
		"pause_total_ns":    m.PauseTotalNs,
		"gc_cpu_fraction":   m.GCCPUFraction,
	}
}

// trace simulates the -trace-cell cell and writes its artifacts: a
// Chrome trace-event JSON file (load in Perfetto or chrome://tracing)
// and optionally a human-readable per-transfer scheduler decision log.
// The cell is resolved, and simulated, before any file is created, so a
// family or an index the catalog does not run is a usage error that
// leaves nothing behind; a cell that fails writes what it recorded up
// to the failure, then reports the failure.
func (c *config) trace(stderr io.Writer) error {
	rec, cellErr := experiments.Trace(c.sc, c.traceExp, c.traceIdx)
	if rec == nil {
		return usagef("-trace-cell %s at -scale %s: %v", c.traceCell, c.scale, cellErr)
	}
	traceFile, err := createFile("-trace-out", c.traceOut, c.force)
	if err != nil {
		return err
	}
	defer traceFile.Close()
	decsFile, err := createFile("-decisions-out", c.decsOut, c.force)
	if err != nil {
		return err
	}
	defer decsFile.Close()
	kindName := func(k uint8) string {
		if n := sim.KindName(sim.EventKind(k)); n != "" {
			return n
		}
		return fmt.Sprintf("kind-%d", k)
	}
	if err := rec.WriteChromeTrace(traceFile, kindName); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	if err := traceFile.Close(); err != nil {
		return fmt.Errorf("-trace-out: %w", err)
	}
	fmt.Fprintf(stderr,
		"trace: cell %s/%d — %d engine events (%d overwritten), %d packet events (%d overwritten), %d subflow events (%d overwritten), %d decisions (%d overwritten) → %s\n",
		rec.Experiment, rec.Cell,
		rec.Flight.Total(), rec.Flight.Dropped(),
		rec.Packets.Total(), rec.Packets.Dropped(),
		rec.Subflows.Total(), rec.Subflows.Dropped(),
		rec.Decisions.Total(), rec.Decisions.Dropped(),
		c.traceOut)
	if decsFile != nil {
		if err := rec.WriteDecisionLog(decsFile); err != nil {
			return fmt.Errorf("-decisions-out: %w", err)
		}
		if err := decsFile.Close(); err != nil {
			return fmt.Errorf("-decisions-out: %w", err)
		}
		fmt.Fprintf(stderr, "decision log: %d decisions → %s\n", rec.Decisions.Total(), c.decsOut)
	}
	return cellErr
}

// eventLine renders the per-run event telemetry: how many logical
// simulation events fired, how many of those were coalesced into a
// preceding dispatch instead of going through the queue, the packets
// delivered, and the events-per-delivered-packet ratio — the
// event-count regression signal the batching work optimizes. Cells
// served from the result cache simulate nothing, so a fully warm run
// reports "0 events" and the ratio is suppressed rather than divided by
// zero.
func eventLine(processed, coalesced uint64, delivered int64) string {
	events := processed + coalesced
	s := fmt.Sprintf("%d events (%d coalesced), %d packets", events, coalesced, delivered)
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

// kindsLine renders events by kind as "name count, …", the most
// frequent kind first and ties by name, or "none".
func kindsLine(byKind map[string]uint64) string {
	if len(byKind) == 0 {
		return "none"
	}
	names := make([]string, 0, len(byKind))
	for name := range byKind {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if a, b := byKind[names[i]], byKind[names[j]]; a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	for i, name := range names {
		names[i] = fmt.Sprintf("%s %d", name, byKind[name])
	}
	return strings.Join(names, ", ")
}

// cellLine renders where the session's cells came from, "H hits, C
// computed (P% hit)"; with no cells at all there is no rate to report.
func cellLine(ses *results.Session) string {
	hits, computed := ses.Stats()
	s := fmt.Sprintf("%d hits, %d computed", hits, computed)
	if total := hits + computed; total > 0 {
		s += fmt.Sprintf(" (%d%% hit)", hits*100/total)
	}
	return s
}

// render plans the chosen experiments, runs every distinct cell they
// read once on one pool, then prints each experiment's block in catalog
// order. Its session comes first: every run gets one. Merge only reads,
// so a read-only store (e.g. another machine's shard output on a
// read-only mount) is fine; every other run creates the dir and probes
// writability up front. An experiment is rendered only when every cell
// it reads was served: a shard pass prints a placeholder, and a merge
// that misses any of an experiment's cells suppresses its block and ends
// with the full hole report and exit 1.
//
// The run's summary is its last stderr lines: "kinds:", the run's queue
// dispatches by event kind; "run:", its reads, cells and events; and,
// unless a merge failed, "queue:", the deepest any engine's queue has
// been in this process and the mean depth over the run's schedules.
// Every number in them but the wall clock is the same at any -j.
func (c *config) render(stdout, stderr io.Writer) (err error) {
	c.ses = &results.Session{Merge: c.merge, Claims: c.claims}
	if !c.noCache && c.cacheDir != "" {
		open := results.Open
		if c.merge {
			open = results.OpenRead
		}
		if c.ses.Store, err = open(c.cacheDir); err != nil {
			return err
		}
	}

	plan := experiments.NewPlan(c.sc, c.exps...)
	runStart := time.Now()
	p0, c0 := sim.TotalEvents()
	kinds0 := sim.TotalEventsByKind()
	dl0 := netsim.TotalDelivered()
	q0 := sim.TotalQueueStats()
	if err := plan.Run(c.jobs, c.ses); err != nil {
		return err
	}
	p1, c1 := sim.TotalEvents()
	processed, coalesced, delivered := p1-p0, c1-c0, netsim.TotalDelivered()-dl0

	missing := make(map[results.Key]bool)
	for _, k := range c.ses.MissingCells() {
		missing[k] = true
	}
	reads := 0
	for i, e := range c.exps {
		start := time.Now()
		cells := plan.Reads(i)
		var block string
		switch {
		case c.claims != nil:
			// A shard pass fills the store; its result structures are
			// partial, so the report is rendered by -merge instead.
			block = fmt.Sprintf("=== %s (%s) — shard %s cached, render with -merge ===\n", e.Name, e.Desc, c.shard)
		case slices.ContainsFunc(cells, func(k results.Key) bool { return missing[k] }):
			// A merge that found holes: the result structures are
			// partial, so nothing is rendered for this experiment.
			fmt.Fprintf(stderr, "ecfbench: %s: reads cells missing from the store; block suppressed\n", e.Name)
		default:
			block = fmt.Sprintf("=== %s (%s) ===\n%s\n", e.Name, e.Desc, plan.Render(i))
		}
		if _, err := io.WriteString(stdout, block); err != nil {
			return fmt.Errorf("writing stdout: %w", err)
		}
		reads += len(cells)
		fmt.Fprintf(stderr, "%s: rendered in %v, reads %d cells\n", e.Name, time.Since(start).Round(time.Microsecond), len(cells))
	}
	fmt.Fprintf(stderr, "kinds: %s\n", kindsLine(eventsByKind(sim.TotalEventsByKind(), kinds0)))
	fmt.Fprintf(stderr, "run: %d reads of %d cells in %v: %v, %s\n", reads, len(plan.Cells()),
		time.Since(runStart).Round(time.Millisecond), cellLine(c.ses), eventLine(processed, coalesced, delivered))
	if len(missing) > 0 {
		// The plan ran every cell, so the hole list is complete — one
		// report covers the whole sweep instead of dying on the first
		// missing cell.
		return missingError(c.ses, c.cacheDir, c.scale)
	}

	q1 := sim.TotalQueueStats()
	ran := sim.QueueStats{DepthSum: q1.DepthSum - q0.DepthSum, DepthSamples: q1.DepthSamples - q0.DepthSamples}
	fmt.Fprintf(stderr, "queue: depth max %d mean %.1f\n", q1.DepthMax, ran.DepthMean())
	return nil
}
