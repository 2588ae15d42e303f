package results

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// memSink records every Put for assertions; optionally fails.
type memSink struct {
	mu   sync.Mutex
	got  map[Key]rec
	puts int
	fail error
}

func newMemSink() *memSink { return &memSink{got: make(map[Key]rec)} }

func (m *memSink) Put(k Key, v any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	m.got[k] = v.(rec)
	m.puts++
	return nil
}

func (m *memSink) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.got)
}

func TestClaimsGateComputesOnlyClaimedCells(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	var computes atomic.Int64
	claimed := func(k Key) bool { return k.Cell%2 == 0 }

	out := make([]rec, n)
	s := &Session{Store: openStore(t, dir), Claims: claimed}
	if err := runSpec(2, s, spec(), n, computeRec(&computes), collectInto(out)); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != n/2 {
		t.Fatalf("computed %d cells, want %d (the claimed half)", computes.Load(), n/2)
	}
	st := openStore(t, dir)
	for i := 0; i < n; i++ {
		has := st.Has(spec().Key(i))
		if want := i%2 == 0; has != want {
			t.Fatalf("store Has(cell %d) = %v, want %v", i, has, want)
		}
		if i%2 == 1 && out[i] != (rec{}) {
			t.Fatalf("unclaimed cell %d was collected: %+v", i, out[i])
		}
	}
}

func TestSinkReceivesComputedAndServedRecords(t *testing.T) {
	dir := t.TempDir()
	const n = 6
	var computes atomic.Int64

	// Cold: every record is computed and delivered to the sink.
	cold := newMemSink()
	s1 := &Session{Store: openStore(t, dir), Sink: cold}
	if err := runSpec(2, s1, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}
	if cold.len() != n {
		t.Fatalf("cold sink got %d records, want %d", cold.len(), n)
	}

	// Warm: cache hits are uploaded too — a worker holding leases on
	// cells it already has locally must still deliver them.
	warm := newMemSink()
	s2 := &Session{Store: openStore(t, dir), Sink: warm}
	if err := runSpec(2, s2, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}
	if h, c := s2.Stats(); h != n || c != 0 {
		t.Fatalf("warm stats = %d hits, %d computed", h, c)
	}
	if warm.len() != n {
		t.Fatalf("warm sink got %d records, want %d (hits upload too)", warm.len(), n)
	}
	for i := 0; i < n; i++ {
		k := spec().Key(i)
		if cold.got[k] != warm.got[k] {
			t.Fatalf("cell %d: cold and warm sink records differ", i)
		}
	}
}

func TestSinkErrorFailsTheCell(t *testing.T) {
	sink := newMemSink()
	sink.fail = errors.New("coordinator unreachable")
	var computes atomic.Int64
	s := &Session{Sink: sink}
	err := runSpec(1, s, spec(), 3, computeRec(&computes), collectInto(make([]rec, 3)))
	if err == nil || !errors.Is(err, sink.fail) {
		t.Fatalf("Run with failing sink = %v, want the sink error", err)
	}
}

func TestLostClaimSkipsUpload(t *testing.T) {
	// The claim is re-checked between compute and upload: a lease lost
	// mid-cell delivers nothing (the stealing worker owns it now).
	var lost atomic.Bool
	sink := newMemSink()
	var computes atomic.Int64
	s := &Session{
		Sink: sink,
		Claims: func(Key) bool {
			// Claimed when the cell starts, revoked by upload time.
			return !lost.Load()
		},
	}
	compute := func(i int) rec {
		computes.Add(1)
		lost.Store(true)
		return rec{Cell: i}
	}
	if err := runSpec(1, s, spec(), 1, compute, collectInto(make([]rec, 1))); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d, want 1", computes.Load())
	}
	if sink.len() != 0 {
		t.Fatalf("sink got %d records after lease loss, want 0", sink.len())
	}
}

func TestMergeGathersEveryHole(t *testing.T) {
	dir := t.TempDir()
	const n = 9
	var computes atomic.Int64

	// Seed shard 0/3 only: cells 1,2,4,5,7,8 are holes.
	s := &Session{Store: openStore(t, dir), Claims: shardOf(0, 3)}
	if err := runSpec(1, s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
		t.Fatal(err)
	}

	m := &Session{Store: openStore(t, dir), Merge: true}
	got := make([]rec, n)
	if err := runSpec(2, m, spec(), n, computeRec(&computes), collectInto(got)); err != nil {
		t.Fatalf("a merge must not fail on holes: %v", err)
	}
	miss := m.MissingCells()
	if len(miss) != 6 {
		t.Fatalf("missing = %d cells (%v), want 6", len(miss), miss)
	}
	for i, k := range miss {
		if k.Cell%3 == 0 {
			t.Fatalf("cell %d reported missing but shard 0/3 covered it", k.Cell)
		}
		if i > 0 && miss[i-1].Cell > k.Cell {
			t.Fatalf("missing cells not sorted: %v", miss)
		}
	}
	// Served cells were still collected; holes stayed at zero values.
	for i := 0; i < n; i++ {
		if covered := i%3 == 0; covered != (got[i].Cell == i && got[i].Label == "cell") {
			t.Fatalf("cell %d: covered=%v but collected %+v", i, covered, got[i])
		}
	}
}

func TestCellErrorNamesTheFailedCell(t *testing.T) {
	const n = 4
	cause := errors.New("over its event budget")
	var computes atomic.Int64
	compute := func(i int) rec {
		computes.Add(1)
		if i == 2 {
			panic(&CellError{Err: cause})
		}
		return rec{Cell: i}
	}
	s := &Session{}
	err := runSpec(1, s, spec(), n, compute, collectInto(make([]rec, n)))
	var ce *CellError
	if !errors.As(err, &ce) || !errors.Is(err, cause) {
		t.Fatalf("Run = %v, want a *CellError wrapping the cause", err)
	}
	if ce.Key != spec().Key(2) {
		t.Fatalf("the error names cell %+v, want cell 2", ce.Key)
	}
	for _, want := range []string{"cell 2", spec().Experiment, "failed: over its event budget"} {
		if !strings.Contains(ce.Error(), want) {
			t.Fatalf("message %q does not name %q", ce.Error(), want)
		}
	}
	if _, c := s.Stats(); c != 2 || len(s.memo) != 2 {
		t.Fatalf("%d computed, %d memo slots; want the 2 cells before the failure, and no slot for it", c, len(s.memo))
	}
	// The failure is the cell's own: asked again, it fails again.
	computes.Store(0)
	err = runSpec(1, s, spec(), n, compute, collectInto(make([]rec, n)))
	if !errors.As(err, &ce) || ce.Key.Cell != 2 || computes.Load() != 1 {
		t.Fatalf("second run = %v after %d computes, want cell 2 failing on its one compute", err, computes.Load())
	}
}
