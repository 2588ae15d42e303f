package experiments

import (
	"testing"

	"repro/internal/results"
)

// The results-layer contract at the driver level: a warm-cache run
// renders byte-identically to the cold run that filled the store (for
// any worker count), shards union into the unsharded report, and a
// scale change invalidates records (which families a change reaches is
// TestScaleFieldsChangeExactlyTheirFamilies).

func cacheSession(t *testing.T, dir string) *results.Session {
	t.Helper()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &results.Session{Store: store}
}

// shardOf is the Claims predicate of a -shard i/n pass.
func shardOf(i, n int) func(results.Key) bool {
	return func(k results.Key) bool { return k.Cell%n == i }
}

func TestGridWarmCacheByteIdenticalAcrossWorkerCounts(t *testing.T) {
	dir := t.TempDir()
	sc := Scale{GridVideoSec: 10}

	sc.Workers = 1
	sc.Results = cacheSession(t, dir)
	cold := ecfGrid(sc).heatmap().String()
	if h, c := sc.Results.Stats(); h != 0 || c != 36 {
		t.Fatalf("cold stats = %d hits, %d computed; want 0, 36", h, c)
	}

	// Warm run on a different worker count: all cells from the store,
	// identical rendering.
	sc.Workers = 8
	sc.Results = cacheSession(t, dir)
	warm := ecfGrid(sc).heatmap().String()
	if h, c := sc.Results.Stats(); h != 36 || c != 0 {
		t.Fatalf("warm stats = %d hits, %d computed; want 36, 0", h, c)
	}
	if warm != cold {
		t.Fatalf("warm grid differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

func TestFigure16ShardsPlusMergeMatchUnsharded(t *testing.T) {
	sc := Scale{RandomDurSec: 60, RandomScenarios: 3}
	want := Figure16(sc).String() // no cache, no shards

	// Split the 9 cells across two shard passes into one store.
	dir := t.TempDir()
	cells := int64(0)
	for i := 0; i < 2; i++ {
		shard := sc
		shard.Results = cacheSession(t, dir)
		shard.Results.Claims = shardOf(i, 2)
		Figure16(shard)
		_, c := shard.Results.Stats()
		cells += c
	}
	if cells != 9 {
		t.Fatalf("shards computed %d cells total, want 9", cells)
	}

	// Merge renders the full report purely from the store.
	merge := sc
	merge.Results = cacheSession(t, dir)
	merge.Results.Merge = true
	got := Figure16(merge).String()
	if h, c := merge.Results.Stats(); h != 9 || c != 0 {
		t.Fatalf("merge stats = %d hits, %d computed; want 9, 0", h, c)
	}
	if got != want {
		t.Fatalf("merged report differs from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s", want, got)
	}
}

func TestScaleChangeInvalidatesCachedCells(t *testing.T) {
	dir := t.TempDir()
	sc := Scale{VideoSec: 15}
	sc.Results = cacheSession(t, dir)
	Table3(sc)
	if h, c := sc.Results.Stats(); h != 0 || c != 4 {
		t.Fatalf("cold stats = %d hits, %d computed; want 0, 4", h, c)
	}

	// Same store, longer playout: every cell must be recomputed.
	longer := Scale{VideoSec: 16}
	longer.Results = cacheSession(t, dir)
	Table3(longer)
	if h, c := longer.Results.Stats(); h != 0 || c != 4 {
		t.Fatalf("changed-scale stats = %d hits, %d computed; want full recompute", h, c)
	}

	// The original scale still hits its own records.
	again := Scale{VideoSec: 15}
	again.Results = cacheSession(t, dir)
	Table3(again)
	if h, c := again.Results.Stats(); h != 4 || c != 0 {
		t.Fatalf("original-scale stats = %d hits, %d computed; want all hits", h, c)
	}
}

func TestShardedPointerRecordDriverMergesCleanly(t *testing.T) {
	// Figure 23 aggregates pointer records (*PageOutcome) after
	// collection; a shard pass leaves uncovered slots nil and the
	// aggregation must skip them rather than dereference (regression:
	// nil-pointer panic under -shard).
	sc := Scale{WildWebRuns: 2}
	want := Figure23(sc).String()

	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		shard := sc
		shard.Results = cacheSession(t, dir)
		shard.Results.Claims = shardOf(i, 2)
		Figure23(shard) // must not panic on nil outcomes
	}
	merge := sc
	merge.Results = cacheSession(t, dir)
	merge.Results.Merge = true
	if got := Figure23(merge).String(); got != want {
		t.Fatalf("merged Figure 23 differs from unsharded:\n--- unsharded ---\n%s\n--- merged ---\n%s", want, got)
	}
}

func TestSharedCellFamiliesServeSiblingDrivers(t *testing.T) {
	// Figure 7 reads the same default-scheduler grid Figure 2 fills: at
	// equal scale the second driver must simulate nothing.
	dir := t.TempDir()
	sc := Scale{GridVideoSec: 10}
	sc.Results = cacheSession(t, dir)
	Figure2(sc)
	h0, c0 := sc.Results.Stats()
	if h0 != 0 || c0 != 36 {
		t.Fatalf("Figure2 cold stats = %d hits, %d computed", h0, c0)
	}
	Figure7(sc)
	h1, c1 := sc.Results.Stats()
	if h1-h0 != 36 || c1 != c0 {
		t.Fatalf("Figure7 after Figure2: %d hits, %d computed; want 36 hits, 0 computed", h1-h0, c1-c0)
	}
}
