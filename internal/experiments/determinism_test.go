package experiments

import "testing"

// The batch's contract: every sweep renders byte-identically
// for any worker count, because each cell is an independent simulation
// keyed only by its index. These regressions pin that for a grid sweep,
// a random-scenario sweep, and a repetition table.

// ecfGrid plans ECF's §5.2 sweep alone and runs it under sc's policy.
func ecfGrid(sc Scale) *GridResult {
	return alone(sc, func(p *Plan) func() *GridResult { return just(readGrid(p, "ecf", false)) })
}

func TestRunGridDeterministicAcrossWorkerCounts(t *testing.T) {
	sc := Scale{GridVideoSec: 10}
	sc.Workers = 1
	serial := ecfGrid(sc).heatmap().String()
	sc.Workers = 8
	parallel := ecfGrid(sc).heatmap().String()
	if serial != parallel {
		t.Fatalf("grid sweep differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestFigure16DeterministicAcrossWorkerCounts(t *testing.T) {
	sc := Scale{RandomDurSec: 60, RandomScenarios: 3}
	sc.Workers = 1
	serial := Figure16(sc).String()
	sc.Workers = 8
	parallel := Figure16(sc).String()
	if serial != parallel {
		t.Fatalf("random sweep differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestTable3DeterministicAcrossWorkerCounts(t *testing.T) {
	sc := Scale{VideoSec: 20}
	sc.Workers = 1
	serial := Table3(sc).String()
	sc.Workers = 8
	parallel := Table3(sc).String()
	if serial != parallel {
		t.Fatalf("Table 3 differs between Workers=1 and Workers=8:\n%s\nvs\n%s", serial, parallel)
	}
}
