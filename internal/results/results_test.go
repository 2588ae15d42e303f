package results

import (
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// rec is a representative cell record: mixed concrete field types.
type rec struct {
	Cell  int
	Label string
	Value float64
}

// computeRec fabricates cell i's record deterministically and counts
// invocations.
func computeRec(counter *atomic.Int64) func(int) rec {
	return func(i int) rec {
		counter.Add(1)
		return rec{Cell: i, Label: "cell", Value: float64(i) * 1.25}
	}
}

// collectInto returns a collect writing into pre-sized storage.
func collectInto(dst []rec) func(int, rec) {
	return func(i int, v rec) { dst[i] = v }
}

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func spec() Spec { return Spec{Experiment: "unit/alpha", Schema: 1, Scale: "s1"} }

// addAll registers cells 0..n-1 of spec on b.
func addAll[T any](b *Batch, spec Spec, n int, compute func(int) T, collect func(int, T)) {
	for i := 0; i < n; i++ {
		AddCell(b, spec, i, 0, compute, collect)
	}
}

// runSpec executes one spec's n cells on workers goroutines under s on
// a batch of their own.
func runSpec[T any](workers int, s *Session, spec Spec, n int, compute func(int) T, collect func(int, T)) error {
	b := NewBatch()
	addAll(b, spec, n, compute, collect)
	return b.Run(s, workers)
}

// shardOf is the Claims predicate of a -shard i/n pass.
func shardOf(i, n int) func(Key) bool {
	return func(k Key) bool { return k.Cell%n == i }
}

func TestRunComputesCollectsAndServesWarm(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	workers := 4

	var computes atomic.Int64
	cold := make([]rec, n)
	s1 := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s1, spec(), n, computeRec(&computes), collectInto(cold)); err != nil {
		t.Fatal(err)
	}
	if h, c := s1.Stats(); h != 0 || c != n {
		t.Fatalf("cold stats = %d hits, %d computed; want 0, %d", h, c, n)
	}
	if computes.Load() != n {
		t.Fatalf("compute ran %d times, want %d", computes.Load(), n)
	}

	warm := make([]rec, n)
	s2 := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s2, spec(), n, computeRec(&computes), collectInto(warm)); err != nil {
		t.Fatal(err)
	}
	if h, c := s2.Stats(); h != n || c != 0 {
		t.Fatalf("warm stats = %d hits, %d computed; want %d, 0", h, c, n)
	}
	if computes.Load() != n {
		t.Fatalf("warm run recomputed: %d total computes", computes.Load())
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm records differ from cold:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

func TestNilSessionComputesEverything(t *testing.T) {
	const n = 5
	var computes atomic.Int64
	got := make([]rec, n)
	if err := runSpec(2, nil, spec(), n, computeRec(&computes), collectInto(got)); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != n {
		t.Fatalf("computes = %d, want %d", computes.Load(), n)
	}
	for i, v := range got {
		if v.Cell != i {
			t.Fatalf("cell %d collected %+v", i, v)
		}
	}
}

// corruptOneRecord truncates/garbles one record file under dir and
// returns how many record files exist.
func corruptOneRecord(t *testing.T, dir string) int {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no record files found")
	}
	if err := os.WriteFile(files[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	return len(files)
}

func TestCorruptRecordIsRecomputedAndHealed(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	workers := 1
	var computes atomic.Int64

	s1 := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s1, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}
	if files := corruptOneRecord(t, dir); files != n {
		t.Fatalf("record files = %d, want %d", files, n)
	}

	got := make([]rec, n)
	s2 := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s2, spec(), n, computeRec(&computes), collectInto(got)); err != nil {
		t.Fatal(err)
	}
	if h, c := s2.Stats(); h != n-1 || c != 1 {
		t.Fatalf("post-corruption stats = %d hits, %d computed; want %d, 1", h, c, n-1)
	}
	for i, v := range got {
		if v.Cell != i || v.Value != float64(i)*1.25 {
			t.Fatalf("cell %d collected %+v after corruption", i, v)
		}
	}

	// The recompute rewrote the record: a third run is all hits.
	s3 := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s3, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}
	if h, c := s3.Stats(); h != n || c != 0 {
		t.Fatalf("healed stats = %d hits, %d computed; want %d, 0", h, c, n)
	}
}

func TestKeyInvalidation(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	workers := 1
	base := spec()

	var computes atomic.Int64
	seed := func(sp Spec) (hits, computed int64) {
		s := &Session{Store: openStore(t, dir)}
		if err := runSpec(workers, s, sp, n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	seed(base)
	for name, sp := range map[string]Spec{
		"scale change":      {Experiment: base.Experiment, Schema: base.Schema, Scale: "s2"},
		"schema bump":       {Experiment: base.Experiment, Schema: base.Schema + 1, Scale: base.Scale},
		"experiment rename": {Experiment: "unit/beta", Schema: base.Schema, Scale: base.Scale},
	} {
		if h, c := seed(sp); h != 0 || c != n {
			t.Fatalf("%s: stats = %d hits, %d computed; want full recompute", name, h, c)
		}
	}
	// The original records were never clobbered by the variants.
	if h, c := seed(base); h != n || c != 0 {
		t.Fatalf("original spec: stats = %d hits, %d computed; want all hits", h, c)
	}
}

func TestShardsUnionThenMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	const n, shards = 10, 3
	workers := 2

	unsharded := make([]rec, n)
	var computes atomic.Int64
	if err := runSpec(workers, nil, spec(), n, computeRec(&computes), collectInto(unsharded)); err != nil {
		t.Fatal(err)
	}

	var shardComputes int64
	for i := 0; i < shards; i++ {
		s := &Session{Store: openStore(t, dir), Claims: shardOf(i, shards)}
		collected := make([]rec, n)
		if err := runSpec(workers, s, spec(), n, computeRec(&computes), collectInto(collected)); err != nil {
			t.Fatal(err)
		}
		_, c := s.Stats()
		shardComputes += c
		for cell, v := range collected {
			covered := cell%shards == i
			if covered && v.Cell != cell {
				t.Fatalf("shard %d: covered cell %d not collected", i, cell)
			}
			if !covered && v != (rec{}) {
				t.Fatalf("shard %d: uncovered cell %d was filled: %+v", i, cell, v)
			}
		}
	}
	if shardComputes != n {
		t.Fatalf("shards computed %d cells total, want %d (each cell exactly once)", shardComputes, n)
	}

	merged := make([]rec, n)
	m := &Session{Store: openStore(t, dir), Merge: true}
	if err := runSpec(workers, m, spec(), n, computeRec(&computes), collectInto(merged)); err != nil {
		t.Fatal(err)
	}
	if h, c := m.Stats(); h != n || c != 0 {
		t.Fatalf("merge stats = %d hits, %d computed; want %d, 0", h, c, n)
	}
	if !reflect.DeepEqual(merged, unsharded) {
		t.Fatalf("merge differs from unsharded:\nmerge:     %+v\nunsharded: %+v", merged, unsharded)
	}
}

func TestMergeMissingCellFails(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	workers := 1
	var computes atomic.Int64

	// Only shard 0/2 ran; merge must name exactly the odd cells, and
	// compute none of them.
	s := &Session{Store: openStore(t, dir), Claims: shardOf(0, 2)}
	if err := runSpec(workers, s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}
	m := &Session{Store: openStore(t, dir), Merge: true}
	if err := runSpec(workers, m, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}
	want := []Key{spec().Key(1), spec().Key(3), spec().Key(5)}
	if miss := m.MissingCells(); !reflect.DeepEqual(miss, want) {
		t.Fatalf("merge missing = %+v, want the odd cells %+v (uncovered by shard 0/2)", miss, want)
	}
	if h, c := m.Stats(); h != n/2 || c != 0 {
		t.Fatalf("merge stats = %d hits, %d computed; want %d, 0", h, c, n/2)
	}
}

func TestBatchRunsMultipleSpecsThroughOnePool(t *testing.T) {
	dir := t.TempDir()
	workers := 4
	var computes atomic.Int64

	a := make([]rec, 7)
	b := make([]rec, 3)
	s := &Session{Store: openStore(t, dir)}
	batch := NewBatch()
	addAll(batch, Spec{Experiment: "unit/a", Schema: 1, Scale: "s"}, len(a), computeRec(&computes), collectInto(a))
	addAll(batch, Spec{Experiment: "unit/b", Schema: 1, Scale: "s"}, len(b), computeRec(&computes), collectInto(b))
	if err := batch.Run(s, workers); err != nil {
		t.Fatal(err)
	}
	if _, c := s.Stats(); c != int64(len(a)+len(b)) {
		t.Fatalf("computed %d cells, want %d", c, len(a)+len(b))
	}
	for i, v := range a {
		if v.Cell != i {
			t.Fatalf("spec a cell %d = %+v", i, v)
		}
	}
	for i, v := range b {
		if v.Cell != i {
			t.Fatalf("spec b cell %d = %+v", i, v)
		}
	}
	// Specs do not collide: each family warms independently.
	s2 := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s2, Spec{Experiment: "unit/a", Schema: 1, Scale: "s"}, len(a), computeRec(&computes), collectInto(make([]rec, len(a)))); err != nil {
		t.Fatal(err)
	}
	if h, c := s2.Stats(); h != int64(len(a)) || c != 0 {
		t.Fatalf("spec a warm stats = %d hits, %d computed", h, c)
	}
}

func TestOpenCreatesMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "cache")
	if _, err := Open(dir); err != nil {
		t.Fatalf("Open on missing nested dir: %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

func TestOpenReadServesMergeWithoutWriting(t *testing.T) {
	dir := t.TempDir()
	const n = 4
	workers := 1
	var computes atomic.Int64
	s := &Session{Store: openStore(t, dir)}
	if err := runSpec(workers, s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}

	// A read-only open (no creation, no probe) is enough for merge.
	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Session{Store: ro, Merge: true}
	got := make([]rec, n)
	if err := runSpec(workers, m, spec(), n, computeRec(&computes), collectInto(got)); err != nil {
		t.Fatal(err)
	}
	if h, c := m.Stats(); h != n || c != 0 {
		t.Fatalf("merge stats = %d hits, %d computed", h, c)
	}

	// Unlike Open, OpenRead must not invent a missing directory.
	if _, err := OpenRead(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("OpenRead on a missing dir succeeded, want error")
	}
}

func TestOpenRejectsUnwritableDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: permission bits are not enforced")
	}
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if _, err := Open(dir); err == nil {
		t.Fatal("Open on read-only dir succeeded, want error")
	}
}
