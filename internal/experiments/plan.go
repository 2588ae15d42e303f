package experiments

import (
	"fmt"

	"repro/internal/results"
)

// A Plan is what one run reads and renders: the cell families its
// experiments declare, once by name, the cell reads they register, and
// one renderer per experiment. A run is NewPlan, one Run, then Render
// for each experiment in order.
type Plan struct {
	sc       Scale          // its sizes; Run takes the run policy
	families map[string]any // name -> *family[T]
	reads    []results.Key  // every read, in registration order
	batch    *results.Batch // every read's cell and collector, for Run
	exps     []planned
}

// planned is one experiment's renderer and its reads, reads[from:to].
type planned struct {
	render   func() fmt.Stringer
	from, to int
}

// NewPlan plans exps at sc's sizes, in order: each declares its families
// on the plan, registers the cells it reads and leaves its renderer.
func NewPlan(sc Scale, exps ...Experiment) *Plan {
	p := &Plan{sc: sc, families: make(map[string]any), batch: results.NewBatch()}
	for _, e := range exps {
		from := len(p.reads)
		render := e.plan(p)
		p.exps = append(p.exps, planned{render, from, len(p.reads)})
	}
	return p
}

// Run executes each distinct cell the plan reads once, on workers
// goroutines (0 = GOMAXPROCS) under ses (nil: compute all, persist
// nothing). Cells collect into pre-sized storage, so what the renderers
// see depends on neither the worker count nor the cache state. It
// returns the failure results.Batch.Run reports, the same at every
// worker count: store I/O, an upload, a *results.CellError. A plan may
// run again under another session, as a join-mode worker's passes do.
func (p *Plan) Run(workers int, ses *results.Session) error {
	return p.batch.Run(ses, workers)
}

// Reads returns the keys experiment i of the plan registered, in order.
func (p *Plan) Reads(i int) []results.Key {
	e := p.exps[i]
	return p.reads[e.from:e.to]
}

// Cells returns every distinct key the plan reads, in first-read order.
func (p *Plan) Cells() []results.Key {
	seen := make(map[results.Key]bool, len(p.reads))
	var out []results.Key
	for _, k := range p.reads {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Render returns experiment i's result from what its cells collected;
// it is complete only if Run served every one of its Reads.
func (p *Plan) Render(i int) fmt.Stringer { return p.exps[i].render() }

// alone is every exported driver: it plans one experiment's cells on a
// plan of their own, runs them under sc's policy and renders. Drivers
// return no errors, so a failure panics with a *results.FatalError.
func alone[R any](sc Scale, plan func(*Plan) func() R) R {
	p := NewPlan(sc)
	render := plan(p)
	if err := p.Run(sc.Workers, sc.Results); err != nil {
		panic(&results.FatalError{Err: err})
	}
	return render()
}

// just is the renderer of a result the plan's collectors fill in
// completely.
func just[R any](r R) func() R { return func() R { return r } }

// A record is what a cell keeps of its scenario's simulation, taken from
// the scenario and the outcome of its Run.
type record[T any] func(Scenario, *Outcome) T

// A family is one cell family declared on a plan: the scenario of every
// cell, in cell order, and the record each keeps. Its key derives from
// both.
type family[T any] struct {
	plan   *Plan
	spec   results.Spec
	cells  []Scenario
	record record[T]
}

// scenarios returns the family's key and cells, whatever its record
// type.
func (f *family[T]) scenarios() (results.Spec, []Scenario) { return f.spec, f.cells }

// declare returns the plan's family of that name: cells builds its
// scenarios, in cell order, the first time the plan asks.
func declare[T any](p *Plan, name string, rec record[T], cells func() []Scenario) *family[T] {
	if f, ok := p.families[name]; ok {
		return f.(*family[T])
	}
	cs := cells()
	f := &family[T]{
		plan:   p,
		spec:   results.Spec{Experiment: name, Schema: recordSchema, Scale: scaleKey[T](cs)},
		cells:  cs,
		record: rec,
	}
	p.families[name] = f
	return f
}

// read registers cells of the family — the listed indexes, or all —
// as read by the experiment being planned. collect(i, v) places cell
// i's record in its result, concurrently for distinct cells; the record
// is the one every reader of the key receives, so collect and the
// renderer copy before changing anything reachable from it.
func (f *family[T]) read(collect func(i int, v T), cells ...int) {
	if len(cells) == 0 {
		cells = make([]int, len(f.cells))
		for i := range cells {
			cells[i] = i
		}
	}
	p := f.plan
	for _, i := range cells {
		p.reads = append(p.reads, f.spec.Key(i))
		results.AddCell(p.batch, f.spec, i, f.cells[i].cost(), f.compute, collect)
	}
}

// compute simulates cell i and keeps its record.
func (f *family[T]) compute(i int) T {
	out := f.cells[i].Run()
	defer out.release()
	return f.record(f.cells[i], out)
}
