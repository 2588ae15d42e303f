package results

import (
	"os"
	"sync/atomic"
	"testing"
)

// The session's record tier: a batch schedules each distinct key once
// however many collectors registered it, the memo serves the session's
// later batches, and a producer that fails leaves nothing behind.

func TestMemoSameKeyTwiceInOneBatchComputesOnce(t *testing.T) {
	const n = 4
	s := &Session{}
	var computes atomic.Int64
	first, second := make([]rec, n), make([]rec, n)
	b := NewBatch()
	addAll(b, spec(), n, computeRec(&computes), collectInto(first))
	addAll(b, spec(), n, computeRec(&computes), collectInto(second))
	if err := b.Run(s, 8); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != n {
		t.Fatalf("computed %d times, want %d (once per distinct key)", computes.Load(), n)
	}
	for i := 0; i < n; i++ {
		if first[i].Cell != i || first[i] != second[i] {
			t.Fatalf("cell %d collected %+v and %+v", i, first[i], second[i])
		}
	}
	// One job per key: the second registration is a second collector,
	// not a second read.
	if h, c := s.Stats(); h != 0 || c != n {
		t.Fatalf("stats = %d hits, %d computed; want 0, %d", h, c, n)
	}
}

func TestMemoServesSecondDriverOfStorelessSession(t *testing.T) {
	const n = 6
	var computes atomic.Int64
	s := &Session{}
	first, second := make([]rec, n), make([]rec, n)
	for _, dst := range [][]rec{first, second} {
		if err := runSpec(3, s, spec(), n, computeRec(&computes), collectInto(dst)); err != nil {
			t.Fatal(err)
		}
	}
	if computes.Load() != n {
		t.Fatalf("computed %d times, want %d", computes.Load(), n)
	}
	if h, c := s.Stats(); h != n || c != n {
		t.Fatalf("stats = %d hits, %d computed; want %d, %d", h, c, n, n)
	}
	for i := range first {
		if first[i].Cell != i || first[i] != second[i] {
			t.Fatalf("cell %d collected %+v then %+v", i, first[i], second[i])
		}
	}
	// A store hit is remembered too: the second read comes from memory,
	// so it hits with the store emptied in between.
	dir := t.TempDir()
	if err := runSpec(1, &Session{Store: openStore(t, dir)}, spec(), n, computeRec(&computes), collectInto(first)); err != nil {
		t.Fatal(err)
	}
	warm := &Session{Store: openStore(t, dir)}
	for pass := 0; pass < 2; pass++ {
		if err := runSpec(3, warm, spec(), n, computeRec(&computes), collectInto(second)); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	if h, c := warm.Stats(); h != 2*n || c != 0 {
		t.Fatalf("warm stats = %d hits, %d computed; want %d, 0", h, c, 2*n)
	}
}

func TestMemoPanicLeavesTheKeyComputable(t *testing.T) {
	s := &Session{}
	func() {
		defer func() {
			// runCell: any panic but a *CellError propagates to Run,
			// its value intact.
			if v := recover(); v != "boom" {
				t.Fatalf("recovered %v, want the compute's own panic value", v)
			}
		}()
		_ = runCell(s, spec(), 0, func(int) rec { panic("boom") }, func(int, rec) {})
	}()
	if len(s.memo) != 0 {
		t.Fatalf("the panicking compute left %d memo slots behind", len(s.memo))
	}
	var computes atomic.Int64
	got := make([]rec, 1)
	if err := runCell(s, spec(), 0, computeRec(&computes), collectInto(got)); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 1 || got[0].Label != "cell" {
		t.Fatalf("retry computed %d times and collected %+v", computes.Load(), got[0])
	}
}

func TestSkippedCellsNeverEnterTheMemo(t *testing.T) {
	const n = 10
	leases := map[int]bool{0: true, 3: true, 7: true}
	for name, tc := range map[string]struct {
		claims func(Key) bool
		want   int
	}{
		"shard 1/3": {shardOf(1, 3), 3},
		"leases":    {func(k Key) bool { return leases[k.Cell] }, len(leases)},
	} {
		s := &Session{Claims: tc.claims}
		var computes atomic.Int64
		if err := runSpec(2, s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
			t.Fatal(err)
		}
		if computes.Load() != int64(tc.want) || len(s.memo) != tc.want {
			t.Fatalf("%s: %d computes, %d memo slots; want %d of each", name, computes.Load(), len(s.memo), tc.want)
		}
		for k := range s.memo {
			if !tc.claims(k) {
				t.Fatalf("%s: skipped cell %d is in the memo", name, k.Cell)
			}
		}
	}
}

func TestMemoHitIsUploadedLikeAStoreHit(t *testing.T) {
	const n = 5
	var computes atomic.Int64
	sink := newMemSink()
	s := &Session{Sink: sink}
	for pass := 1; pass <= 2; pass++ {
		if err := runSpec(2, s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
			t.Fatal(err)
		}
		if sink.puts != pass*n {
			t.Fatalf("pass %d: sink saw %d Puts, want %d (served records upload too)", pass, sink.puts, pass*n)
		}
	}
	if h, _ := s.Stats(); computes.Load() != n || h != n {
		t.Fatalf("%d computes, %d memory hits; want %d, %d", computes.Load(), h, n, n)
	}
}
