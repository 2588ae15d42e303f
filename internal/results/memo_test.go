package results

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/runner"
)

// The session's in-run record tier: every distinct key is produced at
// most once per session however many requesters there are, and a
// producer that fails leaves nothing behind.

func TestMemoSameKeyTwiceInOneBatchComputesOnce(t *testing.T) {
	const n = 4
	// Each cell's compute holds until the key's second requester has
	// passed the lease gate, so both requesters of every key are inside
	// the session at once: one owns the slot, the other finds it owned.
	var mu sync.Mutex
	seen := make(map[int]int)
	both := make([]chan struct{}, n)
	for i := range both {
		both[i] = make(chan struct{})
	}
	s := &Session{Claims: func(k Key) bool {
		mu.Lock()
		defer mu.Unlock()
		if seen[k.Cell]++; seen[k.Cell] == 2 {
			close(both[k.Cell])
		}
		return true
	}}
	var computes atomic.Int64
	compute := func(i int) rec {
		<-both[i]
		return computeRec(&computes)(i)
	}
	first, second := make([]rec, n), make([]rec, n)
	b := NewBatch(runner.New(8), s)
	Add(b, spec(), n, compute, collectInto(first))
	Add(b, spec(), n, compute, collectInto(second))
	if err := b.Run(context.Background()); err != nil {
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
	if h, c := s.Stats(); h != n || c != n || s.MemoryHits() != n {
		t.Fatalf("stats = %d hits (%d from memory), %d computed; want %d, %d, %d", h, s.MemoryHits(), c, n, n, n)
	}
}

func TestMemoServesSecondDriverOfStorelessSession(t *testing.T) {
	const n = 6
	var computes atomic.Int64
	s := &Session{}
	first, second := make([]rec, n), make([]rec, n)
	for _, dst := range [][]rec{first, second} {
		if err := runSpec(runner.New(3), s, spec(), n, computeRec(&computes), collectInto(dst)); err != nil {
			t.Fatal(err)
		}
	}
	if computes.Load() != n {
		t.Fatalf("computed %d times, want %d", computes.Load(), n)
	}
	if h, c := s.Stats(); h != n || c != n || s.MemoryHits() != n {
		t.Fatalf("stats = %d hits (%d from memory), %d computed; want %d, %d, %d", h, s.MemoryHits(), c, n, n, n)
	}
	for i := range first {
		if first[i].Cell != i || first[i] != second[i] {
			t.Fatalf("cell %d collected %+v then %+v", i, first[i], second[i])
		}
	}
	// A store hit is remembered too: the second read comes from memory.
	dir := t.TempDir()
	if err := runSpec(runner.New(1), &Session{Store: openStore(t, dir)}, spec(), n, computeRec(&computes), collectInto(first)); err != nil {
		t.Fatal(err)
	}
	warm := &Session{Store: openStore(t, dir)}
	for pass := 0; pass < 2; pass++ {
		if err := runSpec(runner.New(3), warm, spec(), n, computeRec(&computes), collectInto(second)); err != nil {
			t.Fatal(err)
		}
	}
	if h, c := warm.Stats(); h != 2*n || c != 0 || warm.MemoryHits() != n {
		t.Fatalf("warm stats = %d hits (%d from memory), %d computed; want %d, %d, 0", h, warm.MemoryHits(), c, 2*n, n)
	}
}

func TestMemoFailedOwnerHandsTheKeyToItsWaiter(t *testing.T) {
	// The same key twice on two workers, both held at the lease gate
	// until the other has arrived: whichever then owns the slot fails
	// its compute; the other must find the key free again (woken from
	// its wait, or arriving after the release) and compute it itself.
	var arrivals, calls atomic.Int64
	bothIn := make(chan struct{})
	compute := func(i int) rec {
		if calls.Add(1) == 1 {
			panic(&CellError{Err: errors.New("first try failed")})
		}
		return rec{Cell: i, Label: "second try"}
	}
	s := &Session{Claims: func(Key) bool {
		if arrivals.Add(1) == 2 {
			close(bothIn)
		}
		<-bothIn
		return true
	}}
	got := make([]rec, 2)
	b := NewBatch(runner.New(2), s)
	for slot := range got {
		slot := slot
		Add(b, spec(), 1, compute, func(_ int, v rec) { got[slot] = v })
	}
	err := b.Run(context.Background())
	var ce *CellError
	if !errors.As(err, &ce) || ce.Key != spec().Key(0) {
		t.Fatalf("Run = %v, want the owner's *CellError naming cell 0", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2 (the failed owner's and the waiter's own)", calls.Load())
	}
	if (got[0].Label == "second try") == (got[1].Label == "second try") {
		t.Fatalf("collected %+v: want exactly the waiter's record", got)
	}
	// And the record it produced is what the session remembers.
	if err := runSpec(runner.New(1), s, spec(), 1, compute, collectInto(got)); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || s.MemoryHits() != 1 {
		t.Fatalf("after the takeover: %d computes, %d memory hits; want 2, 1", calls.Load(), s.MemoryHits())
	}
}

func TestMemoPanicLeavesTheKeyComputable(t *testing.T) {
	s := &Session{}
	func() {
		defer func() {
			// The runner contract: any panic but a *CellError propagates,
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
		if err := runSpec(runner.New(2), s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
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
		if err := runSpec(runner.New(2), s, spec(), n, computeRec(&computes), collectInto(make([]rec, n))); err != nil {
			t.Fatal(err)
		}
		if sink.puts != pass*n {
			t.Fatalf("pass %d: sink saw %d Puts, want %d (served records upload too)", pass, sink.puts, pass*n)
		}
	}
	if computes.Load() != n || s.MemoryHits() != n {
		t.Fatalf("%d computes, %d memory hits; want %d, %d", computes.Load(), s.MemoryHits(), n, n)
	}
}
