package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
)

// Experiment is one named, runnable paper artifact.
type Experiment struct {
	// Name is the ecfbench -exp argument.
	Name string
	// Desc is the one-line description -list and the report headers print.
	Desc string
	// Run executes the driver and returns its printable result.
	Run func(Scale) fmt.Stringer
}

// driver adapts a typed driver function to Experiment.Run.
func driver[R fmt.Stringer](run func(Scale) R) func(Scale) fmt.Stringer {
	return func(sc Scale) fmt.Stringer { return run(sc) }
}

// Catalog is every table and figure of the paper's evaluation, in the
// order `ecfbench -exp all` prints them. It is the one list of drivers:
// the harness, the enumerated work list, the join-mode worker pass and
// this package's whole-catalog tests all range over it.
var Catalog = []Experiment{
	{"table1", "video bit rates vs. resolution", driver(func(Scale) *Table1Result { return Table1() })},
	{"table2", "avg RTT with bandwidth regulation", driver(Table2)},
	{"table3", "# of IW resets per scheduler (0.3/8.6)", driver(Table3)},
	{"table4", "wild web browsing averages", driver(Table4)},
	{"fig1", "ON-OFF download pattern", driver(Figure1)},
	{"fig2", "default-scheduler bitrate-ratio heat map", driver(Figure2)},
	{"fig3", "send-buffer occupancy trace (0.3/8.6)", driver(Figure3)},
	{"fig5", "CDF of last-packet time differences", driver(Figure5)},
	{"fig6", "throughput with/without CWND reset", driver(Figure6)},
	{"fig7", "traffic split, default vs ideal", driver(Figure7)},
	{"fig9", "bitrate-ratio heat maps for 4 schedulers", driver(Figure9)},
	{"fig10", "traffic split: BLEST vs ECF vs ideal", driver(Figure10)},
	{"fig11", "WiFi CWND traces per scheduler", driver(Figure11)},
	{"fig12", "LTE CWND traces per scheduler", driver(Figure12)},
	{"fig13", "OOO-delay CCDF, default scheduler", driver(Figure13)},
	{"fig14", "OOO-delay CCDF per scheduler", driver(Figure14)},
	{"fig15", "four-subflow bitrate ratios", driver(Figure15)},
	{"fig16", "random bandwidth-change throughput", driver(Figure16)},
	{"fig17", "per-chunk throughput trace", driver(Figure17)},
	{"fig18", "wget completion times", driver(Figure18)},
	{"fig19", "ECF/default wget ratio heat maps", driver(Figure19)},
	{"fig20", "web object completion-time CCDFs", driver(Figure20)},
	{"fig21", "web browsing OOO-delay CCDFs", driver(Figure21)},
	{"fig22", "wild streaming: RTTs and throughput", driver(Figure22)},
	{"fig23", "wild web: completion and OOO CCDFs", driver(Figure23)},
}

// ByName looks an experiment up by its Catalog name.
func ByName(name string) (Experiment, bool) {
	for _, e := range Catalog {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ScaleByName maps a -scale flag value ("full" or "quick") to its
// profile.
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "full":
		return Full, true
	case "quick":
		return Quick, true
	default:
		return Scale{}, false
	}
}

// EnumerateCells returns the full cell work list of a catalog run at
// the given scale — one (spec, cell count) entry per record family —
// without simulating anything: every driver runs under results.Families,
// whose Claims gate notes each cell's key and skips the cell. Because the
// specs come from the same code paths a real run uses, the result
// cannot drift from the drivers. Expanding each family through Spec.Key
// yields every cell key exactly once: the work list a sweep coordinator
// (cmd/ecfd) hands out as leases, and its specs are the active matrix
// that ecfbench -cache-prune keeps.
func EnumerateCells(sc Scale) []results.CellFamily {
	sc.Workers = 1 // skipped cells are no-ops; skip the pool fan-out
	return results.Families(func(ses *results.Session) {
		sc.Results = ses
		RunCatalog(sc)
	})
}

// RunCatalog runs every driver in the catalog for its side effects on
// sc.Results, discarding the rendered reports — the join-mode worker
// pass: under a session whose Claims gate covers the worker's leased
// cells, exactly those cells are computed and uploaded, everything
// else is skipped, and the partially-filled result structures are
// never rendered.
func RunCatalog(sc Scale) {
	for _, e := range Catalog {
		e.Run(sc)
	}
}

// Trace simulates cell cell of the named family once, exactly as a
// catalog run at the scale would, with a fresh flight recorder observing
// every network it builds, and returns the recorder. It reads and
// writes no store: the family is looked up among those the catalog
// declares at the scale (EnumerateCells, which simulates nothing), and
// only that one scenario runs. An unknown family or an index out of
// range is an error with a nil recorder. A cell that fails returns its
// recorder, holding everything up to the failure, beside the
// *results.CellError a sweep would report for it.
func Trace(sc Scale, family string, cell int) (*obs.CellRecorder, error) {
	EnumerateCells(sc)
	f, ok := declared.Load(familyKey{family, sc.sizes()})
	if !ok {
		return nil, fmt.Errorf("no cell family %q runs at this scale", family)
	}
	spec, cells := f.(declaredFamily).scenarios()
	if cell < 0 || cell >= len(cells) {
		return nil, fmt.Errorf("cell family %q has %d cells, so its index runs 0..%d, not %d", family, len(cells), len(cells)-1, cell)
	}
	return traceCell(spec.Key(cell), cells[cell], (*core.Network).RunQuiet)
}

// traceCell runs s, the scenario of cell k, under a fresh recorder, with a
// web workload's network driven by drive. A *results.CellError comes
// back as the error, naming k; any other panic propagates.
func traceCell(k results.Key, s Scenario, drive webRun) (rec *obs.CellRecorder, err error) {
	rec = obs.NewCellRecorder(k.Experiment, k.Cell)
	defer func() {
		if p := recover(); p != nil {
			ce, ok := p.(*results.CellError)
			if !ok {
				panic(p)
			}
			ce.Key, err = k, ce
		}
	}()
	s.run(drive, rec).Release()
	return rec, nil
}
