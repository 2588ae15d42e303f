package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
)

// Experiment is one named paper artifact.
type Experiment struct {
	// Name is the ecfbench -exp argument.
	Name string
	// Desc is the one-line description -list and the report headers print.
	Desc string
	// plan registers the experiment's cells on the plan and returns its
	// renderer, which reads them once the plan has run.
	plan func(*Plan) func() fmt.Stringer
}

// planner adapts a typed planner to Experiment.plan.
func planner[R fmt.Stringer](plan func(*Plan) func() R) func(*Plan) func() fmt.Stringer {
	return func(p *Plan) func() fmt.Stringer {
		render := plan(p)
		return func() fmt.Stringer { return render() }
	}
}

// Catalog is every table and figure of the paper's evaluation, in the
// order `ecfbench -exp all` prints them. It is the one list of
// experiments: the harness, the enumerated work list, the join-mode
// worker pass and this package's whole-catalog tests all plan it.
var Catalog = []Experiment{
	{"table1", "video bit rates vs. resolution", planner(func(*Plan) func() *Table1Result { return Table1 })},
	{"table2", "avg RTT with bandwidth regulation", planner(planTable2)},
	{"table3", "# of IW resets per scheduler (0.3/8.6)", planner(planTable3)},
	{"table4", "wild web browsing averages", planner(planTable4)},
	{"fig1", "ON-OFF download pattern", planner(planFigure1)},
	{"fig2", "default-scheduler bitrate-ratio heat map", planner(planFigure2)},
	{"fig3", "send-buffer occupancy trace (0.3/8.6)", planner(planFigure3)},
	{"fig5", "CDF of last-packet time differences", planner(planFigure5)},
	{"fig6", "throughput with/without CWND reset", planner(planFigure6)},
	{"fig7", "traffic split, default vs ideal", planner(planFigure7)},
	{"fig9", "bitrate-ratio heat maps for 4 schedulers", planner(planFigure9)},
	{"fig10", "traffic split: BLEST vs ECF vs ideal", planner(planFigure10)},
	{"fig11", "WiFi CWND traces per scheduler", planner(planFigure11)},
	{"fig12", "LTE CWND traces per scheduler", planner(planFigure12)},
	{"fig13", "OOO-delay CCDF, default scheduler", planner(planFigure13)},
	{"fig14", "OOO-delay CCDF per scheduler", planner(planFigure14)},
	{"fig15", "four-subflow bitrate ratios", planner(planFigure15)},
	{"fig16", "random bandwidth-change throughput", planner(planFigure16)},
	{"fig17", "per-chunk throughput trace", planner(planFigure17)},
	{"fig18", "wget completion times", planner(planFigure18)},
	{"fig19", "ECF/default wget ratio heat maps", planner(planFigure19)},
	{"fig20", "web object completion-time CCDFs", planner(planFigure20)},
	{"fig21", "web browsing OOO-delay CCDFs", planner(planFigure21)},
	{"fig22", "wild streaming: RTTs and throughput", planner(planFigure22)},
	{"fig23", "wild web: completion and OOO CCDFs", planner(planFigure23)},
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

// CellFamily is one record family of the enumerated work list and the
// number of its cells a catalog run reads.
type CellFamily struct {
	Spec  results.Spec
	Cells int
}

// EnumerateCells returns the cell work list of a catalog run at the
// scale, one entry per family sorted by name, without simulating: the
// catalog plan's keys grouped by family, counting up to the highest
// cell read. The catalog reads every family from cell 0 without a gap,
// so expanding each entry through Spec.Key yields each key the run
// reads exactly once: what cmd/ecfd leases out, and, at Full and Quick
// together, the active matrix ecfbench -cache-prune keeps.
func EnumerateCells(sc Scale) []CellFamily {
	n := make(map[results.Spec]int)
	for _, k := range NewPlan(sc, Catalog...).Cells() {
		spec := results.Spec{Experiment: k.Experiment, Schema: k.Schema, Scale: k.Scale}
		n[spec] = max(n[spec], k.Cell+1)
	}
	out := make([]CellFamily, 0, len(n))
	for spec, cells := range n {
		out = append(out, CellFamily{spec, cells})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Experiment < out[j].Spec.Experiment })
	return out
}

// RunCatalog runs the catalog plan under sc's policy for its effect on
// sc.Results and renders nothing. A failure panics with a
// *results.FatalError.
func RunCatalog(sc Scale) {
	if err := NewPlan(sc, Catalog...).Run(sc.Workers, sc.Results); err != nil {
		panic(&results.FatalError{Err: err})
	}
}

// Trace simulates cell cell of the named family once, exactly as a
// catalog run at the scale would, with a fresh flight recorder observing
// every network it builds, and returns the recorder. It reads and
// writes no store: the family is looked up in the catalog plan, and
// only that one scenario runs. An unknown family or an index out of
// range is an error with a nil recorder. A cell that fails returns its
// recorder, holding everything up to the failure, beside the
// *results.CellError a sweep would report for it.
func Trace(sc Scale, family string, cell int) (*obs.CellRecorder, error) {
	f, ok := NewPlan(sc, Catalog...).families[family].(interface {
		scenarios() (results.Spec, []Scenario)
	})
	if !ok {
		return nil, fmt.Errorf("no cell family %q runs at this scale", family)
	}
	spec, cells := f.scenarios()
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
	s.run(drive, rec).release()
	return rec, nil
}
