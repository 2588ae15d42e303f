package results

import (
	"context"
	"sort"
	"time"

	"repro/internal/runner"
)

// Batch accumulates cells from one or more specs and executes them all
// through a single worker pool, so nested sweeps (Figure 9's four
// grids, Figure 14's two panels) saturate the pool instead of draining
// it once per sub-sweep. Cells are independent jobs under the runner
// contract: compute must derive everything from the cell index, and
// collect must write into pre-sized storage (distinct cells may be
// collected concurrently, in any order).
type Batch struct {
	pool    runner.Pool
	session *Session
	jobs    []func() error
	// costs holds one relative cost estimate per job (0 = unknown).
	// When any job declared a cost, Run dispatches in descending cost
	// order (longest-processing-time): starting the expensive cells
	// first shrinks the tail where the last worker finishes a long cell
	// alone. Purely a dispatch hint — collection is cell-indexed, so
	// output is identical in any order.
	costs []float64
}

// NewBatch returns an empty batch executing on pool under session's
// policy (session may be nil: compute everything).
func NewBatch(pool runner.Pool, session *Session) *Batch {
	return &Batch{pool: pool, session: session}
}

// Add registers the n cells of one spec. compute(i) produces cell i's
// record — a JSON-serializable value under the package's determinism
// contract — and
// collect(i, v) stores it into the caller's result structure. When the
// batch runs, each cell is served from the session's in-run records or
// its store when a record exists, computed and persisted when not,
// skipped when the session's Claims gate refuses it, and in merge mode
// never computed (a missing record is noted in MissingCells).
//
// The record handed to collect is shared: the session keeps it, and
// every other collector of the same key in this run receives the very
// same value. collect, and whatever later renders the collected
// structure, must treat it as read-only; a collector that needs to
// change a slice, map or pointee copies it first.
func Add[T any](b *Batch, spec Spec, n int, compute func(i int) T, collect func(i int, v T)) {
	for i := 0; i < n; i++ {
		AddCell(b, spec, i, 0, compute, collect)
	}
}

// AddCell registers cell i of spec alone, as Add does each of its cells —
// for a driver that reads only some cells of a family — with a dispatch
// hint: cost estimates the cell's relative compute expense for
// longest-processing-time dispatch (see Batch). Any positive unit works;
// only the ordering matters, and zero declares none.
func AddCell[T any](b *Batch, spec Spec, i int, cost float64, compute func(i int) T, collect func(i int, v T)) {
	s := b.session
	b.jobs = append(b.jobs, func() error { return runCell(s, spec, i, compute, collect) })
	b.costs = append(b.costs, cost)
}

// memoSlot is one key's entry in a session's in-run record tier. The
// goroutine that created it owns it until it calls fill or release;
// every other requester of the key waits on ready.
type memoSlot struct {
	s        *Session
	k        Key
	ready    chan struct{} // closed by fill and by release
	v        any           // the record; written before ready closes
	filled   bool          // written before ready closes
	released bool          // owner-side only
}

// fill publishes the record and wakes the key's waiters.
func (m *memoSlot) fill(v any) {
	m.v, m.filled = v, true
	close(m.ready)
}

// release gives an unfilled slot up — a compute that failed or
// panicked, a merge miss: the key leaves the memo, and a
// waiter that wakes to the empty slot looks the key up afresh and
// becomes its next owner. A no-op once the slot is filled.
func (m *memoSlot) release() {
	if m.filled || m.released {
		return
	}
	m.released = true
	m.s.memoMu.Lock()
	delete(m.s.memo, m.k)
	m.s.memoMu.Unlock()
	close(m.ready)
}

// lookup is the one way a session sources an existing record: the
// run's memo first, then the store, whose record the memo keeps for the
// key's next requester. With neither, the caller becomes the key's
// owner: own is non-nil, and the caller must produce the record and
// fill own, or release it. A requester that finds the key owned by
// another goroutine waits for that one's record instead of producing a
// second.
func lookup[T any](s *Session, k Key) (v T, own *memoSlot) {
	for {
		s.memoMu.Lock()
		slot := s.memo[k]
		if slot == nil {
			slot = &memoSlot{s: s, k: k, ready: make(chan struct{})}
			if s.memo == nil {
				s.memo = make(map[Key]*memoSlot)
			}
			s.memo[k] = slot
			s.memoMu.Unlock()
			if s.Store != nil && s.Store.Get(k, &v) {
				s.storeHits.Add(1)
				slot.fill(v)
				return v, nil
			}
			return v, slot
		}
		s.memoMu.Unlock()
		<-slot.ready
		if slot.filled {
			s.memoHits.Add(1)
			return slot.v.(T), nil
		}
	}
}

// resolve takes one cell as far as it goes without simulating — the
// per-cell decision in front of compute. It reports done when nothing is
// left to do: the Claims gate skipped the cell, or its record was served
// (uploaded and collected), or it is a merge miss (noted). Otherwise the
// caller must compute the cell and fill own, or release it.
func resolve[T any](s *Session, k Key, i int, collect func(int, T)) (own *memoSlot, done bool, err error) {
	if s.Claims != nil && !s.Claims(k) {
		return nil, true, nil
	}
	v, own := lookup[T](s, k)
	if own == nil {
		if err := s.upload(k, v); err != nil {
			return nil, true, err
		}
		collect(i, v)
		return nil, true, nil
	}
	if s.Merge {
		own.release()
		s.noteMissing(k)
		return nil, true, nil
	}
	return own, false, nil
}

// runCell executes one cell under the session policy, computing on the
// calling goroutine. A *CellError panic — the compute's report that the
// cell cannot produce a record — comes back as that error, naming the
// cell; any other panic propagates under the runner contract.
func runCell[T any](s *Session, spec Spec, i int, compute func(int) T, collect func(int, T)) (err error) {
	k := spec.key(i)
	defer func() {
		if p := recover(); p != nil {
			ce, ok := p.(*CellError)
			if !ok {
				panic(p)
			}
			ce.Key, err = k, ce
		}
	}()
	if s == nil {
		collect(i, compute(i))
		return nil
	}
	own, done, err := resolve(s, k, i, collect)
	if done {
		return err
	}
	// A compute that fails or panics leaves the slot empty and unlocked
	// for the key's next requester.
	defer own.release()
	start := time.Now()
	v := compute(i)
	s.noteDuration(time.Since(start))
	s.computed.Add(1)
	if s.Store != nil {
		if err := s.Store.Put(k, v); err != nil {
			return err
		}
	}
	if err := s.upload(k, v); err != nil {
		return err
	}
	own.fill(v)
	collect(i, v)
	return nil
}

// upload forwards a served or computed record to the session's Sink —
// the distributed ingest path. A lease lost while the cell was being
// computed skips the upload: the record is correct (determinism makes
// every writer's bytes identical, and the coordinator's ingest is
// idempotent anyway) but the cell is no longer this worker's to report,
// and the stealing worker is already recomputing it.
func (s *Session) upload(k Key, v any) error {
	if s.Sink == nil {
		return nil
	}
	if s.Claims != nil && !s.Claims(k) {
		return nil
	}
	return s.Sink.Put(k, v)
}

// Run executes every registered cell across the pool and empties the
// batch. Jobs with declared costs are dispatched first, most expensive
// leading (longest-processing-time); the order never affects results,
// only the parallel tail. It returns the first error (store I/O, sink
// upload or a *CellError); other compute panics propagate per the
// runner contract.
func (b *Batch) Run(ctx context.Context) error {
	jobs, costs := b.jobs, b.costs
	b.jobs, b.costs = nil, nil
	pool := b.pool
	pool.Order = lptOrder(costs)
	return pool.ForEach(ctx, len(jobs), func(_ context.Context, i int) error {
		return jobs[i]()
	})
}

// lptOrder returns the descending-cost dispatch permutation, or nil
// when no job declared a cost (natural order). The sort is stable so
// unhinted jobs and cost ties keep registration order.
func lptOrder(costs []float64) []int {
	hinted := false
	for _, c := range costs {
		if c != 0 {
			hinted = true
			break
		}
	}
	if !hinted {
		return nil
	}
	ord := make([]int, len(costs))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return costs[ord[a]] > costs[ord[b]] })
	return ord
}
