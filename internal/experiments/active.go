package experiments

import (
	"fmt"

	"repro/internal/results"
)

// allDrivers runs every experiment driver in the catalog, in catalog
// order. It exists for EnumerateActive: keep it in sync with the
// ecfbench catalog (the prune-coverage test in this package catches a
// driver whose records are not enumerated).
var allDrivers = []func(Scale) fmt.Stringer{
	func(Scale) fmt.Stringer { return Table1() },
	func(sc Scale) fmt.Stringer { return Table2(sc) },
	func(sc Scale) fmt.Stringer { return Table3(sc) },
	func(sc Scale) fmt.Stringer { return Table4(sc) },
	func(sc Scale) fmt.Stringer { return Figure1(sc) },
	func(sc Scale) fmt.Stringer { return Figure2(sc) },
	func(sc Scale) fmt.Stringer { return Figure3(sc) },
	func(sc Scale) fmt.Stringer { return Figure5(sc) },
	func(sc Scale) fmt.Stringer { return Figure6(sc) },
	func(sc Scale) fmt.Stringer { return Figure7(sc) },
	func(sc Scale) fmt.Stringer { return Figure9(sc) },
	func(sc Scale) fmt.Stringer { return Figure10(sc) },
	func(sc Scale) fmt.Stringer { return Figure11(sc) },
	func(sc Scale) fmt.Stringer { return Figure12(sc) },
	func(sc Scale) fmt.Stringer { return Figure13(sc) },
	func(sc Scale) fmt.Stringer { return Figure14(sc) },
	func(sc Scale) fmt.Stringer { return Figure15(sc) },
	func(sc Scale) fmt.Stringer { return Figure16(sc) },
	func(sc Scale) fmt.Stringer { return Figure17(sc) },
	func(sc Scale) fmt.Stringer { return Figure18(sc) },
	func(sc Scale) fmt.Stringer { return Figure19(sc) },
	func(sc Scale) fmt.Stringer { return Figure20(sc) },
	func(sc Scale) fmt.Stringer { return Figure21(sc) },
	func(sc Scale) fmt.Stringer { return Figure22(sc) },
	func(sc Scale) fmt.Stringer { return Figure23(sc) },
}

// EnumerateActive returns the record groups — (experiment, scale,
// schema) triples — that a full catalog run at the given scale reads
// and writes, without simulating anything: every driver runs under an
// enumerating session, which notes each cell's spec and skips the cell.
// Because the specs come from the same code paths a real run uses, the
// result cannot drift from the drivers; it is the active matrix that
// ecfbench -cache-prune keeps.
func EnumerateActive(sc Scale) []results.Group {
	ses := &results.Session{Enumerate: true}
	sc.Results = ses
	sc.Workers = 1 // enumerate jobs are no-ops; skip the pool fan-out
	for _, run := range allDrivers {
		run(sc)
	}
	return ses.ActiveGroups()
}

// EnumerateCells returns the full cell work list of a catalog run at
// the given scale — one (spec, cell count) entry per record family,
// derived by the same enumerating-session trick as EnumerateActive, so
// it cannot drift from the drivers. Expanding each family through
// Spec.Key yields every cell key exactly once; this is the work list a
// sweep coordinator (cmd/ecfd) hands out as leases.
func EnumerateCells(sc Scale) []results.CellFamily {
	ses := &results.Session{Enumerate: true}
	sc.Results = ses
	sc.Workers = 1
	for _, run := range allDrivers {
		run(sc)
	}
	return ses.ActiveCellFamilies()
}

// RunCatalog runs every driver in the catalog for its side effects on
// sc.Results, discarding the rendered reports — the join-mode worker
// pass: under a session whose Claims gate covers the worker's leased
// cells, exactly those cells are computed and uploaded, everything
// else is skipped, and the partially-filled result structures are
// never rendered.
func RunCatalog(sc Scale) {
	for _, run := range allDrivers {
		run(sc)
	}
}
