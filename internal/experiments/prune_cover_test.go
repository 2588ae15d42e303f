package experiments

import (
	"testing"

	"repro/internal/results"
)

// TestEnumerateCellsCoversColdStoreGroups is the anti-drift guard for
// -cache-prune's enumeration at a scale other than Quick: every group a
// real (cold, cached) run writes must be in the enumerated matrix for
// the same scale, or prune would delete live records. A couple of cheap
// drivers stand in for the catalog — the enumerated set itself is the
// catalog plan's keys, listed without simulating anything
// (TestCatalogStoreShape compares the whole catalog at quick scale).
func TestEnumerateCellsCoversColdStoreGroups(t *testing.T) {
	sc := Scale{
		VideoSec:        5,
		GridVideoSec:    5,
		RandomDurSec:    20,
		RandomScenarios: 1,
		WebRuns:         1,
		WildWebRuns:     1,
	}

	dir := t.TempDir()
	cold := sc
	cold.Results = cacheSession(t, dir)
	Figure16(cold) // random-bandwidth cells
	Figure1(cold)  // a single streaming cell
	if _, c := cold.Results.Stats(); c == 0 {
		t.Fatal("cold pass computed nothing; test is vacuous")
	}

	active := make(map[results.Spec]bool)
	for _, f := range EnumerateCells(sc) {
		active[f.Spec] = true
	}
	if len(active) == 0 {
		t.Fatal("EnumerateCells returned nothing")
	}

	store, err := results.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.Records == 0 {
		t.Fatal("cold store is empty; test is vacuous")
	}
	for _, line := range audit.Lines {
		if !active[line.Spec] {
			t.Errorf("group %+v written by a real run is missing from the active matrix (prune would delete it)", line.Spec)
		}
	}

	// And the matrix actually discriminates: a stale group must not be
	// covered.
	if active[results.Spec{Experiment: "fig16", Scale: "rd999,rs9", Schema: 2}] {
		t.Error("active matrix covers a scale that was never enumerated")
	}
}
