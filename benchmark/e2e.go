package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"
)

// workload is one closed-loop, one-client traffic mix: the harness
// starts the next child only when the previous one has exited. setup is
// the untimed work before the first timed iteration (its wall clock is
// setup_s); iterate is the timed part, first child start to last child
// exit; verify, when set, is a check too slow to run inside the timing.
type workload struct {
	name    string
	why     string
	scale   string   // the scale of the blessed entries one iteration covers
	exps    []string // those entries: experiment names, or "all"
	setup   func() error
	iterate func(u *usage) error
	verify  func() error
}

// The reasons are BENCHMARK.json's `why` lines; names_test.go keeps the
// workload names equal.
const (
	whyStream = "19 streaming experiments, one cold -j 1 child each: long DASH flows at 1.2-1.3 events/pkt, all time in sim/netsim/tcp/mptcp/sched/cc"
	whyWeb    = "6 web experiments, same flags: thousands of short transfers at 2.6-3.0 events/pkt, where slow start, RTO arming, RTT jitter and cell set-up cost"
	whyWarm   = "whole catalog from a populated store: simulates nothing, so store reads, JSON decode and render are all the work; set-up is the store write path"
	whyCoord  = "ecfd + one joined worker + merge at quick scale over loopback: the only workload where claim/heartbeat/ingest and store writes outweigh simulation"
	whyPar    = "whole catalog cold at -j 2: the only workload with more than one worker, so runner dispatch, LPT order and pool contention show here alone"
)

func shuffled(xs []string, seed uint64) []string {
	out := append([]string(nil), xs...)
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// workloads builds the five workloads. The seed orders the experiments
// inside a stream-cold or web-cold iteration; the catalog itself is the
// paper's fixed matrix and every cell is seeded by runner.Seed, so
// nothing else is drawn.
func (h *harness) workloads() []*workload {
	sc := h.cfg.scale
	stream := shuffled(expNames(false), h.cfg.seed)
	web := shuffled(expNames(true), h.cfg.seed)
	var discard usage
	var store string // catalog-warm's populated store
	var storeFiles int
	sweeps := 0
	sweep := func(u *usage) error {
		// A store of its own per sweep, so no iteration pays for removing
		// the previous one.
		sweeps++
		dir, err := h.dir(fmt.Sprintf("coord-store-%d", sweeps))
		if err != nil {
			return err
		}
		_, err = h.coordSweep(dir, u)
		return err
	}
	return []*workload{
		{
			name: "stream-cold", why: whyStream, scale: sc, exps: stream,
			setup:   func() error { return h.runExps("quick", stream, &discard, nil) },
			iterate: func(u *usage) error { return h.runExps(sc, stream, u, nil) },
		},
		{
			name: "web-cold", why: whyWeb, scale: sc, exps: web,
			setup:   func() error { return h.runExps("quick", web, &discard, nil) },
			iterate: func(u *usage) error { return h.runExps(sc, web, u, nil) },
		},
		{
			name: "catalog-warm", why: whyWarm, scale: sc, exps: []string{"all"},
			setup: func() (err error) {
				if store, err = h.dir("warm-store"); err != nil {
					return err
				}
				if err = h.runAll(sc, &discard, "-cache-dir", store, "-j", "1"); err != nil {
					return err
				}
				storeFiles, _, err = countFiles(store)
				return err
			},
			iterate: func(u *usage) error { return h.runAll(sc, u, "-cache-dir", store, "-j", "1") },
			verify: func() error {
				if n, _, err := countFiles(store); err != nil || n != storeFiles {
					return fmt.Errorf("warm pass changed the store from %d to %d files (something was recomputed): %v", storeFiles, n, err)
				}
				return nil
			},
		},
		{
			name: "coord-sweep", why: whyCoord, scale: "quick", exps: []string{"all"},
			setup:   func() error { return sweep(&discard) },
			iterate: sweep,
		},
		{
			name: "catalog-par", why: whyPar, scale: sc, exps: []string{"all"},
			setup:   func() error { return h.runAll("quick", &discard, "-no-cache", "-j", "2") },
			iterate: func(u *usage) error { return h.runAll(sc, u, "-no-cache", "-j", "2") },
		},
	}
}

// measured is one reported number.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload (or one traced run). The last line
// of standard output is its line(): the keys the driver reads.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Errors    []string
	Metrics   map[string]measured
	Samples   map[string]summary // timing metrics: median, min, max, n
}

func (r *result) note(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) line() string {
	out, _ := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	return string(out)
}

// runWorkload runs the set-up cfg.setupReps times, then timed
// iterations until cfg.seconds of measured time and cfg.minIters
// iterations are both reached. Every set-up and every iteration is
// checked against golden.json and counts as one attempt.
func (h *harness) runWorkload(w *workload) *result {
	res := &result{Workload: w.name}
	var setups []time.Duration
	for i := 0; i < h.cfg.setupReps; i++ {
		start := time.Now()
		err := w.setup()
		setups = append(setups, time.Since(start))
		res.note(err)
	}
	var walls, cpus []time.Duration
	var total time.Duration
	for len(walls) < h.cfg.minIters || total < time.Duration(h.cfg.seconds)*time.Second {
		var u usage
		start := time.Now()
		err := w.iterate(&u)
		wall := time.Since(start)
		if err == nil && w.verify != nil {
			err = w.verify()
		}
		res.note(err)
		walls, cpus = append(walls, wall), append(cpus, u.cpu)
		total += wall
	}
	wall, cpu, setup := summarize(seconds(walls)), summarize(seconds(cpus)), summarize(seconds(setups))
	pkts, cells := h.golden.sum(w.scale, w.exps)
	res.Samples = map[string]summary{"wall_s": wall, "cpu_s": cpu, "setup_s": setup}
	res.Metrics = map[string]measured{
		"wall_s":      {wall.Median, "s"},
		"cpu_s":       {cpu.Median, "s"},
		"ns_per_pkt":  {wall.Median * 1e9 / float64(pkts), "ns"},
		"us_per_cell": {wall.Median * 1e6 / float64(cells), "us"},
		"setup_s":     {setup.Median, "s"},
	}
	return res
}

// print writes the human-readable block of one result: every metric by
// name with its unit, and for the sampled ones min, max and count.
func (r *result) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "\n%s: %d attempted, %d failed (fail_ratio %.3g)\n", r.Workload, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-12s", d.Name, m.Value, m.Unit)
		if s, ok := r.Samples[d.Name]; ok {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", s.Min, s.Max, s.N)
		}
		if d.Exact {
			fmt.Fprint(w, " exact")
		}
		fmt.Fprintln(w)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
