package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"time"
)

// ExperimentReport is the per-experiment section of a run report: its
// render and the cells it reads. One pool runs every experiment's
// cells, so what they cost is the run's (RunReport).
type ExperimentReport struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	RenderMs    float64 `json:"render_ms"`
	CellsRead   int     `json:"cells_read"`
	// Sharded marks an experiment that printed a shard placeholder
	// instead of its report (its OutputSHA256 hashes that placeholder).
	Sharded bool `json:"sharded"`
	// OutputBytes/OutputSHA256 cover the experiment's exact stdout
	// block (header line + report + blank line) — the golden-output
	// fingerprint to compare across runs and hosts.
	OutputBytes  int    `json:"output_bytes"`
	OutputSHA256 string `json:"output_sha256"`
}

// MemStats is the heap/GC summary of a run report.
type MemStats struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	SysBytes        uint64  `json:"sys_bytes"`
	NumGC           uint32  `json:"num_gc"`
	PauseTotalNs    uint64  `json:"pause_total_ns"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
}

// CaptureMemStats snapshots the process heap/GC state.
func CaptureMemStats() MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return MemStats{
		HeapAllocBytes:  m.HeapAlloc,
		TotalAllocBytes: m.TotalAlloc,
		SysBytes:        m.Sys,
		NumGC:           m.NumGC,
		PauseTotalNs:    m.PauseTotalNs,
		GCCPUFraction:   m.GCCPUFraction,
	}
}

// QueueReport is the event-queue telemetry section of a run report: the
// process-wide queue depth (one sample per scheduled event) flushed by
// engine resets (schema 5; schemas 3 and 4 carried more fields here).
type QueueReport struct {
	DepthMax  uint64  `json:"depth_max"`
	DepthMean float64 `json:"depth_mean"`
}

// RunReport is the machine-readable run summary ecfbench -report-json
// emits.
// The event and packet counters are deltas of the process counters
// (sim.TotalEvents, netsim.TotalDelivered) around the run's one pool,
// identical for any worker count. Schema 6 moved the cell, event and
// packet counters here from ExperimentReport.
type RunReport struct {
	Tool          string `json:"tool"`
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	// Scale and Workers echo the run configuration (Workers resolved,
	// never 0).
	Scale       string  `json:"scale"`
	Workers     int     `json:"workers"`
	WallClockMs float64 `json:"wall_clock_ms"`
	// CellsRead sums the experiments' reads, of Cells distinct cells;
	// CacheHits of those were served without simulating.
	CellsRead     int   `json:"cells_read"`
	Cells         int   `json:"cells"`
	CacheHits     int64 `json:"cache_hits"`
	CacheComputed int64 `json:"cache_computed"`
	// EventsProcessed/EventsCoalesced/EventsTotal are engine dispatch
	// counts (heap dispatches, inline claims, and their sum).
	EventsProcessed uint64 `json:"events_processed"`
	EventsCoalesced uint64 `json:"events_coalesced"`
	EventsTotal     uint64 `json:"events_total"`
	// EventsByKind splits EventsProcessed by event kind, keyed by the
	// kind's registered name (kinds that never fired are absent); the
	// values sum to EventsProcessed.
	EventsByKind map[string]uint64 `json:"events_by_kind"`
	// PacketsDelivered counts link deliveries (loss included).
	PacketsDelivered int64 `json:"packets_delivered"`
	// CellP50Ms/CellP95Ms/CellMaxMs summarize the wall-clock durations
	// of the run's *computed* cells (cache hits are excluded, so the
	// distribution describes simulation expense, not store reads, and
	// the cell population is independent of the worker count). All zero
	// when every cell was served from the cache.
	CellP50Ms   float64            `json:"cell_p50_ms"`
	CellP95Ms   float64            `json:"cell_p95_ms"`
	CellMaxMs   float64            `json:"cell_max_ms"`
	Experiments []ExperimentReport `json:"experiments"`
	// OutputSHA256 hashes the run's whole stdout.
	OutputSHA256 string `json:"output_sha256"`
	// Queue is the event-queue telemetry (schema 3). The obs package
	// cannot see the sim package, so the caller fills it from
	// sim.TotalQueueStats.
	Queue QueueReport `json:"queue"`
	Mem   MemStats    `json:"mem"`
}

// SetCellDurations fills the computed-cell duration stats from the
// run's per-cell wall-clock samples (the slice is sorted in place). The
// percentiles are nearest-rank: the p-th of n samples is the
// ⌈p·n/100⌉-th smallest, the smallest sample with at least p % of the
// samples at or below it. No samples — a fully cached run — leaves the
// stats zero.
func (r *RunReport) SetCellDurations(durs []time.Duration) {
	if len(durs) == 0 {
		return
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	rank := func(p int) float64 {
		return float64(durs[(p*len(durs)+99)/100-1]) / 1e6
	}
	r.CellP50Ms = rank(50)
	r.CellP95Ms = rank(95)
	r.CellMaxMs = float64(durs[len(durs)-1]) / 1e6
}

// NewRunReport returns a report with the environment fields filled in.
func NewRunReport(scale string, workers int) *RunReport {
	return &RunReport{
		Tool:          "ecfbench",
		SchemaVersion: 6,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Scale:         scale,
		Workers:       workers,
	}
}

// Write writes the report as indented JSON to w (the caller owns the
// destination — ecfbench opens it up front so a clobber refusal aborts
// before the run, not after).
func (r *RunReport) Write(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
