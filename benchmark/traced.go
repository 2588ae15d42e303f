package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/results"
	"repro/internal/sim"
)

// expStats is what one in-process driver call did, read from the
// counters the layers already export.
type expStats struct {
	wall, render      time.Duration
	events, coalesced uint64
	pkts              int64
	hits, computed    int64
	out               string
	res               fmt.Stringer
}

func (s expStats) cells() int64 { return s.hits + s.computed }

// groupStats sums the experiments of one cold workload.
type groupStats struct {
	events, coalesced uint64
	pkts, cells, hits int64
}

func sumGroup(stats map[string]expStats, web bool) groupStats {
	var g groupStats
	for _, d := range driversOf(web) {
		s := stats[d.name]
		g.events += s.events
		g.coalesced += s.coalesced
		g.pkts += s.pkts
		g.cells += s.cells()
		g.hits += s.hits
	}
	return g
}

// catalogPass calls each driver once in process, in the given order,
// with a span around the driver and a child span around its render, and
// adds what it saw to stats. The drivers raise store failures as
// *results.FatalError panics; those come back as errors.
func (t *tracer) catalogPass(sc experiments.Scale, ds []driver, stats map[string]expStats) (err error) {
	defer recoverFatal(&err)
	for _, d := range ds {
		var s expStats
		h0, c0 := sc.Results.Stats()
		p0, q0 := sim.TotalEvents()
		d0 := netsim.TotalDelivered()
		id := t.begin("experiments." + d.name)
		s.res = d.run(sc)
		s.render = t.do("render", func() { s.out = s.res.String() })
		s.wall = t.end(id)
		p1, q1 := sim.TotalEvents()
		h1, c1 := sc.Results.Stats()
		s.events, s.coalesced = (p1-p0)+(q1-q0), q1-q0
		s.pkts = netsim.TotalDelivered() - d0
		s.hits, s.computed = h1-h0, c1-c0
		stats[d.name] = s
	}
	return nil
}

// recoverFatal, deferred, turns a driver's *results.FatalError panic
// into the function's error, as cmd/ecfbench does; any other panic goes
// on.
func recoverFatal(err *error) {
	if v := recover(); v != nil {
		var fe *results.FatalError
		if pe, ok := v.(error); ok && errors.As(pe, &fe) {
			*err = fe
			return
		}
		panic(v)
	}
}

func passWall(stats map[string]expStats) time.Duration {
	var d time.Duration
	for _, s := range stats {
		d += s.wall
	}
	return d
}

// profiled runs fn under the harness's own CPU profile and returns the
// profile's flat time folded by package.
func (h *harness) profiled(t *tracer, name string, fn func() error) (map[string]float64, error) {
	path := filepath.Join(h.tmp, name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	err = fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	var top string
	t.do("profile.fold", func() { top, err = pprofTop(path) })
	if err != nil {
		return nil, err
	}
	return foldProfile(top)
}

// rpcSpans is the coordinator client's transport: it records one span
// per RPC, named after the path, from whichever goroutine made it.
type rpcSpans struct {
	t      *tracer
	parent int
}

func (r rpcSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	r.t.add(r.parent, "coord.rpc "+req.URL.Path, start, time.Now())
	return resp, err
}

// coordPass sweeps the quick catalog through an in-process coordinator
// behind httptest and one lease-loop worker, as cmd/ecfd and
// `ecfbench -join` wire them. The lease TTL is short so that heartbeats
// (sent every TTL/3) happen inside the ~100 ms passes.
func (h *harness) coordPass(t *tracer, sc experiments.Scale) (cells int, ws coord.WorkerStats, st coord.Status, err error) {
	dir, err := h.dir("trace-coord")
	if err != nil {
		return 0, ws, st, err
	}
	store, err := results.Open(dir)
	if err != nil {
		return 0, ws, st, err
	}
	var keys []results.Key
	for _, f := range experiments.EnumerateCells(sc) {
		for i := 0; i < f.Cells; i++ {
			keys = append(keys, f.Spec.Key(i))
		}
	}
	srv, err := coord.NewServer(coord.Config{Store: store, Cells: keys, ScaleName: "quick", LeaseTTL: 90 * time.Millisecond})
	if err != nil {
		return 0, ws, st, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := coord.NewClient(hs.URL, "benchmark")
	client.HTTP = &http.Client{Timeout: 30 * time.Second, Transport: rpcSpans{t, t.current()}}
	ws, err = coord.RunWorker(context.Background(), coord.WorkerConfig{
		Client: client,
		// A worker pass computes only its leased cells, so its result
		// structures are partial and nothing is rendered.
		RunPass: func(ses *results.Session) (err error) {
			defer recoverFatal(&err)
			pass := sc
			pass.Results = ses
			t.do("experiments.RunCatalog", func() { experiments.RunCatalog(pass) })
			return nil
		},
	})
	return len(keys), ws, srv.Status(), err
}

// traced is the state of one traced run: the spans, the metrics
// gathered so far, and the checks made.
type traced struct {
	h   *harness
	t   *tracer
	res *result
	m   map[string]float64
	sc  experiments.Scale // the cold and warm passes' scale, one worker
	rng *sim.RNG          // seeded by -seed; draws the probes' parameters

	// What the children phase hands to the in-process phases.
	stdout     map[string][]byte // `ecfbench -exp <name>` output
	storeDir   string            // populated by a child
	storeFiles int
	coldWall   time.Duration // one stream-cold + one web-cold iteration
	sweepWall  time.Duration // coord-sweep without the merge
}

// tracedRun is the -trace 1 mode: every per-layer metric, from one
// untimed iteration of each workload's children, spans the harness
// records around its own calls into the layers, the counters the layers
// export, and its own CPU profile. It never feeds an end-to-end metric.
func (h *harness) tracedRun() (*result, error) {
	r := &traced{
		h: h, t: newTracer(), m: map[string]float64{"host.calib_ns": h.env.CalibNs},
		res: &result{Workload: "traced run", Metrics: map[string]measured{}},
		sc:  scaleOf(h.cfg.scale), rng: sim.NewRNG(h.cfg.seed), stdout: map[string][]byte{},
	}
	r.sc.Workers = 1
	root := r.t.begin("benchmark.trace")
	for _, phase := range []func() error{r.children, r.passes, r.coordinator, r.probes} {
		if err := phase(); err != nil {
			return nil, err
		}
	}
	r.t.end(root)
	self := selfTimes(r.t.spans)
	r.m["bench.self_ms"] = float64(self[root]) / 1e6

	defs := layerDefs()
	for _, d := range defs {
		v, ok := r.m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("the traced run did not measure %s (%v)", d.Name, v)
		}
		r.res.Metrics[d.Name] = measured{v, d.Unit}
	}
	return r.res, h.writeTrace(r.t, self, r.res, defs)
}

// children runs one untimed iteration of each workload's children, for
// the numbers only a real process has: peak RSS, start-up, -j 2, the
// loopback. It runs first, while this process is still small: a child's
// ru_maxrss starts from the resident size of the process that forked
// it.
func (r *traced) children() error {
	h, t, scale := r.h, r.t, r.h.cfg.scale
	id := t.begin("children")
	defer t.end(id)
	var startups []float64
	for i := 0; i < 5; i++ {
		var err error
		d := t.do("child ecfbench -list", func() { _, err = h.ecfbench("-list") })
		r.res.note(err)
		startups = append(startups, ms(d))
	}
	r.m["ecfbench.startup_ms"] = median(startups)

	keep := func(exp string, stdout []byte) error {
		r.stdout[exp] = stdout
		return nil
	}
	var cold, par, warm, sweep usage
	var err error
	streamWall := t.do("child stream-cold", func() { err = h.runExps(scale, expNames(false), &cold, keep) })
	r.res.note(err)
	webWall := t.do("child web-cold", func() { err = h.runExps(scale, expNames(true), &cold, keep) })
	r.res.note(err)
	parWall := t.do("child catalog-par", func() { err = h.runAll(scale, &par, "-no-cache", "-j", "2") })
	r.res.note(err)
	r.coldWall = streamWall + webWall
	r.m["ecfbench.peak_rss_mb.stream"] = float64(cold.rssKB) / 1024
	r.m["runner.parallel_efficiency"] = r.coldWall.Seconds() / (2 * parWall.Seconds())

	if r.storeDir, err = h.dir("trace-store"); err != nil {
		return err
	}
	t.do("child catalog-warm populate", func() { err = h.runAll(scale, &usage{}, "-cache-dir", r.storeDir, "-j", "1") })
	r.res.note(err)
	var storeBytes int64
	if r.storeFiles, storeBytes, err = countFiles(r.storeDir); err != nil {
		return err
	}
	t.do("child catalog-warm", func() { err = h.runAll(scale, &warm, "-cache-dir", r.storeDir, "-j", "1") })
	if n, _, _ := countFiles(r.storeDir); err == nil && n != r.storeFiles {
		err = fmt.Errorf("the warm child changed the store from %d to %d files", r.storeFiles, n)
	}
	r.res.note(err)
	r.m["ecfbench.peak_rss_mb.warm"] = float64(warm.rssKB) / 1024
	r.m["results.store_files"] = float64(r.storeFiles)
	r.m["results.record_bytes_mean"] = float64(storeBytes) / float64(r.storeFiles)

	sweepDir, err := h.dir("trace-sweep")
	if err != nil {
		return err
	}
	t.do("child coord-sweep", func() { r.sweepWall, err = h.coordSweep(sweepDir, &sweep) })
	r.res.note(err)
	return nil
}

// passes runs the catalog in process: cold, one CPU profile per group,
// then warm over the store the child populated.
func (r *traced) passes() error {
	h, t, m := r.h, r.t, r.m
	cold := map[string]expStats{}
	shares := map[string]map[string]float64{}
	for _, g := range []struct {
		name string
		web  bool
	}{{"stream", false}, {"web", true}} {
		id := t.begin("pass.cold." + g.name)
		sh, err := h.profiled(t, g.name, func() error { return t.catalogPass(r.sc, driversOf(g.web), cold) })
		t.end(id)
		if err != nil {
			return err
		}
		shares[g.name] = sh
		gs := sumGroup(cold, g.web)
		m["sim.events_per_pkt."+g.name] = float64(gs.events) / float64(gs.pkts)
		m["sim.coalesced_share."+g.name] = float64(gs.coalesced) / float64(gs.events)
		m["netsim.pkts."+g.name] = float64(gs.pkts)
	}
	// Only the cold passes have used an engine so far, so the process
	// totals are theirs.
	qs := sim.TotalQueueStats()
	m["sim.queue_depth_mean"], m["sim.queue_depth_max"] = qs.DepthMean(), float64(qs.DepthMax)
	var render time.Duration
	for _, d := range drivers {
		s := cold[d.name]
		m["experiments."+d.name+".wall_ms"] = ms(s.wall)
		render += s.render
		// The in-process render is what the binary prints after its
		// header line.
		var err error
		if !bytes.HasSuffix(r.stdout[d.name], []byte(s.out+"\n")) {
			err = fmt.Errorf("ecfbench -exp %s prints something else than the in-process %s driver renders", d.name, d.name)
		}
		r.res.note(err)
	}
	m["experiments.render_ms"] = ms(render)
	if fig9, ok := cold["fig9"].res.(*experiments.Figure9Result); ok {
		for _, s := range schedulers {
			m["sched.fig9_mean_ratio."+s] = fig9.MeanRatio(s)
		}
	}
	m["bench.trace_overhead_pct"] = 100 * (passWall(cold) - r.coldWall).Seconds() / r.coldWall.Seconds()

	store, err := results.Open(r.storeDir)
	if err != nil {
		return err
	}
	var walls []float64
	var warm map[string]expStats
	id := t.begin("pass.warm")
	shares["warm"], err = h.profiled(t, "warm", func() error {
		for i := 0; i < probeReps; i++ {
			t.iter = i
			sc := r.sc
			sc.Results = &results.Session{Store: store}
			warm = map[string]expStats{}
			if err := t.catalogPass(sc, drivers, warm); err != nil {
				return err
			}
			walls = append(walls, float64(passWall(warm).Nanoseconds())/1e3)
		}
		t.iter = 0
		return nil
	})
	t.end(id)
	if err != nil {
		return err
	}
	for _, d := range drivers {
		if warm[d.name].out != cold[d.name].out {
			err = fmt.Errorf("the warm pass renders %s differently from the cold pass", d.name)
		}
	}
	r.res.note(err)
	stream, web := sumGroup(warm, false), sumGroup(warm, true)
	cells, hits := stream.cells+web.cells, stream.hits+web.hits
	if hits != cells {
		r.res.note(fmt.Errorf("the warm pass recomputed %d cells", cells-hits))
	}
	m["experiments.cells.stream"], m["experiments.cells.web"] = float64(stream.cells), float64(web.cells)
	m["results.warm_us_per_cell"] = median(walls) / float64(cells)
	m["results.hit_ratio.warm"] = float64(hits) / float64(cells)
	// Every computed cell of the populate pass wrote one file; the rest
	// were shared with an earlier experiment and hit.
	m["results.shared_cell_ratio"] = 1 - float64(r.storeFiles)/float64(cells)
	for _, g := range cpuShareDefs {
		for _, p := range g.pkgs {
			m["cpu_share."+g.pass+"."+p] = shares[g.pass][p]
		}
	}
	return nil
}

// coordinator runs a plain quick cold pass to subtract, then the
// in-process sweep.
func (r *traced) coordinator() error {
	t, m := r.t, r.m
	quick := experiments.Quick
	quick.Workers = 1
	plain := map[string]expStats{}
	id := t.begin("pass.cold.quick")
	err := t.catalogPass(quick, drivers, plain)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("pass.coord")
	cells, ws, status, err := r.h.coordPass(t, quick)
	t.end(id)
	if err != nil {
		return err
	}
	if !status.Complete || status.Done != cells {
		err = fmt.Errorf("in-process sweep ended with %d of %d cells done", status.Done, cells)
	}
	r.res.note(err)
	for _, rpc := range []string{"claim", "ingest", "heartbeat"} {
		ds := t.durations("coord.rpc /v1/" + rpc)
		if len(ds) == 0 {
			return fmt.Errorf("in-process sweep made no %s RPC", rpc)
		}
		m["coord."+rpc+"_ms"] = median(ds)
	}
	m["coord.passes"], m["coord.duplicates"] = float64(ws.Passes), float64(status.Duplicates)
	m["coord.overhead_us_per_cell"] = float64((r.sweepWall - passWall(plain)).Nanoseconds()) / 1e3 / float64(cells)
	return nil
}

// probes runs the layer probes of probes.go.
func (r *traced) probes() error {
	t, m, rng := r.t, r.m, r.rng
	id := t.begin("probes")
	defer t.end(id)
	m["sim.ns_per_event"] = t.probeSim(rng)
	m["netsim.ns_per_pkt"] = t.probeLink("netsim.Link.Send", rng, 0)
	m["netsim.ns_per_pkt_lossy"] = t.probeLink("netsim.Link.Send lossy", rng, 0.01)
	one := []core.PathSpec{{Name: "wifi", RateMbps: float64(20 + rng.Intn(80)), BaseRTT: time.Duration(10+rng.Intn(50)) * time.Millisecond}}
	two := drawPaths(rng)
	var first probe
	m["tcp.ns_per_pkt"], first, _ = t.probeBulk("tcp bulk", one, func() core.ConnOptions {
		return core.ConnOptions{Scheduler: "minrtt", CongestionControl: "reno"}
	})
	m["tcp.allocs_per_pkt"] = float64(first.allocs) / float64(first.pkts)
	m["tcp.short_flow_us"] = t.probeShortFlows(rng)
	for _, c := range []string{"reno", "lia"} {
		m["cc."+c+".ns_per_pkt"], _, _ = t.probeBulk("cc "+c+" bulk", two, func() core.ConnOptions {
			return core.ConnOptions{Scheduler: "minrtt", CongestionControl: c}
		})
	}
	for _, s := range schedulers {
		var st bulkStats
		m["mptcp.ns_per_pkt."+s], _, st = t.probeBulk("mptcp "+s+" bulk", two, func() core.ConnOptions { return schedulerOpts(s) })
		switch s {
		case "minrtt":
			m["mptcp.reinjections"], m["mptcp.penalties"], m["mptcp.window_stalls"] = float64(st.reinjections), float64(st.penalties), float64(st.windowStalls)
		case "ecf", "blest":
			m["sched.waits."+s] = float64(st.waits)
		}
	}
	m["core.cell_setup_us"], m["core.allocs_per_cell"] = t.probeCellSetup()
	m["trace.jitter_ns_per_tick"] = t.probeJitter(rng)
	dir, err := r.h.dir("trace-probe-store")
	if err != nil {
		return err
	}
	m["results.put_us"], m["results.get_us"], err = t.probeStore(dir, rng)
	return err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeTrace writes benchmark/out/trace.json (every span) and
// layers.json (the metrics, the host, and self time summed by span
// name).
func (h *harness) writeTrace(t *tracer, self []int64, res *result, defs []metricDef) error {
	out := filepath.Join(h.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	selfMs := map[string]float64{}
	for i, s := range t.spans {
		selfMs[s.Name] += float64(self[i]) / 1e6
	}
	type layerMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Exact bool    `json:"exact"`
	}
	metrics := map[string]layerMetric{}
	for _, d := range defs {
		metrics[d.Name] = layerMetric{res.Metrics[d.Name].Value, d.Unit, d.Exact}
	}
	layers := struct {
		Environment environment            `json:"environment"`
		Metrics     map[string]layerMetric `json:"metrics"`
		SelfMs      map[string]float64     `json:"self_ms_by_span_name"`
	}{h.env, metrics, selfMs}
	for name, v := range map[string]any{"trace.json": t.spans, "layers.json": layers} {
		raw, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, name), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
