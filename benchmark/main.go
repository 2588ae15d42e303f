// Command benchmark is this repository's one benchmark: it defines
// every performance number the repository quotes. See README.md beside
// this file and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                       # all five workloads, end to end
//	go run ./benchmark -workload web-cold    # one workload
//	go run ./benchmark -trace 1              # the traced run: per-layer metrics
//	go run ./benchmark -smoke                # quick scale, one iteration each
//	go run ./benchmark -selfcheck            # two interleaved sets against the bounds
//	go run ./benchmark -bless                # rewrite golden.json (benchmark PRs only)
//
// End-to-end numbers are taken from outside the real binaries
// (cmd/ecfbench and cmd/ecfd, built from the working tree and run as
// child processes with tracing off). Per-layer numbers come from the
// separate traced run, in which this program calls the internal
// packages itself and records a span around each call.
package main

import (
	"flag"
	"fmt"
	"os"
)

// config is one invocation's settings. seconds, minIters and setupReps
// together fix how much a run measures; they are the same on every
// commit (BENCHMARK.json's run_seconds is the -seconds the driver
// passes).
type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	scale     string // "full", or "quick" under -smoke
	setupReps int
	minIters  int
}

// defaultSeconds equals BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: stream-cold, web-cold, catalog-warm, coord-sweep, catalog-par, or all")
		seed         = flag.Uint64("seed", 1, "orders the experiments inside an iteration and draws every parameter of the layer probes")
		seconds      = flag.Int("seconds", defaultSeconds, "timed iterations continue until this much time has been measured (and at least 3 iterations)")
		trace        = flag.Int("trace", 0, "1: the traced run (per-layer metrics, benchmark/out/trace.json and layers.json); 0: the timed run")
		smoke        = flag.Bool("smoke", false, "quick scale everywhere, one set-up and one timed iteration per workload, same checks")
		selfcheck    = flag.Bool("selfcheck", false, "run two interleaved sets and two traced runs of this build and compare them with BENCHMARK.json's bounds")
		bless        = flag.Bool("bless", false, "rewrite benchmark/golden.json from this build's outputs")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: usage: go run ./benchmark [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-smoke|-selfcheck|-bless]")
		os.Exit(2)
	}
	cfg := config{
		workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: "full", setupReps: 3, minIters: 3,
	}
	if *smoke {
		cfg.scale, cfg.seconds, cfg.setupReps, cfg.minIters = "quick", 0, 1, 1
	}
	os.Exit(run(cfg, *selfcheck, *bless))
}

func run(cfg config, selfcheck, bless bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	h, err := newHarness(cfg)
	if err != nil {
		return fail(err)
	}
	defer h.close()
	if err := h.build(); err != nil {
		return fail(err)
	}
	if bless {
		if err := h.bless(); err != nil {
			return fail(err)
		}
		return 0
	}
	if h.golden, err = loadGolden(h.root); err != nil {
		return fail(err)
	}
	h.env = captureEnvironment(h.root, cfg)
	h.env.print(os.Stdout)
	switch {
	case selfcheck:
		return h.selfcheck()
	case cfg.trace:
		res, err := h.tracedRun()
		if err != nil {
			return fail(err)
		}
		res.print(os.Stdout, layerDefs())
		fmt.Println(res.line())
		return min(res.Failed, 1)
	}
	var chosen []*workload
	for _, w := range h.workloads() {
		if cfg.workload == "all" || cfg.workload == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return fail(fmt.Errorf("unknown workload %q", cfg.workload))
	}
	failed := 0
	for _, w := range chosen {
		res := h.runWorkload(w)
		res.print(os.Stdout, endToEndDefs)
		fmt.Println(res.line())
		failed += res.Failed
	}
	return min(failed, 1)
}
