package results

import (
	"context"
	"sort"
	"time"

	"repro/internal/runner"
)

// Batch accumulates cells from one or more specs and executes them all
// through a single worker pool, each key once: a run plans every cell
// its experiments read onto one batch, so the pool sees the whole
// matrix and no cell is scheduled twice. Cells are independent jobs
// under the runner contract: compute must derive everything from the
// cell index, and collect must write into pre-sized storage (distinct
// cells may be collected concurrently, in any order).
type Batch struct {
	pool    runner.Pool
	session *Session
	jobs    []job
	byKey   map[Key]job
	// costs holds one relative cost estimate per job (0 = unknown).
	// When any job declared a cost, Run dispatches in descending cost
	// order (longest-processing-time): starting the expensive cells
	// first shrinks the tail where the last worker finishes a long cell
	// alone. Purely a dispatch hint — collection is cell-indexed, so
	// output is identical in any order.
	costs []float64
}

// job is one key's cell on a batch, whatever its record type.
type job interface {
	run(s *Session) error
}

// cellJob is a key's cell and every collector registered for it.
type cellJob[T any] struct {
	spec     Spec
	i        int
	compute  func(int) T
	collects []func(int, T)
}

func (j *cellJob[T]) run(s *Session) error {
	return runCell(s, j.spec, j.i, j.compute, func(i int, v T) {
		for _, collect := range j.collects {
			collect(i, v)
		}
	})
}

// NewBatch returns an empty batch executing on pool under session's
// policy (session may be nil: compute everything).
func NewBatch(pool runner.Pool, session *Session) *Batch {
	return &Batch{pool: pool, session: session, byKey: make(map[Key]job)}
}

// AddCell registers cell i of spec. compute(i) produces its record — a
// JSON-serializable value under the package's determinism contract —
// and collect(i, v) stores it into the caller's result structure. When
// the batch runs, the cell is served from the session's records or its
// store when a record exists, computed and persisted when not, skipped
// when the session's Claims gate refuses it, and in merge mode never
// computed (a missing record is noted in MissingCells). cost estimates
// the cell's relative compute expense for longest-processing-time
// dispatch (see Batch): only the ordering matters, and zero declares
// none.
//
// A key the batch already holds gains collect as one more collector of
// its one job, which keeps the first registration's compute and cost:
// the key is the record's whole identity, record type included. So the
// record handed to collect is shared: every collector of the key
// receives the very same value, and the session keeps it. collect, and
// whatever later renders the collected structure, must treat it as
// read-only; a collector that needs to change a slice, map or pointee
// copies it first.
func AddCell[T any](b *Batch, spec Spec, i int, cost float64, compute func(i int) T, collect func(i int, v T)) {
	k := spec.Key(i)
	if j, ok := b.byKey[k]; ok {
		c := j.(*cellJob[T])
		c.collects = append(c.collects, collect)
		return
	}
	j := &cellJob[T]{spec: spec, i: i, compute: compute, collects: []func(int, T){collect}}
	b.byKey[k] = j
	b.jobs = append(b.jobs, j)
	b.costs = append(b.costs, cost)
}

// lookup is the one way a session sources an existing record: the
// run's memo first, then the store, whose record the memo keeps for the
// key's next batch. ok is false when neither holds one.
func lookup[T any](s *Session, k Key) (v T, ok bool) {
	s.memoMu.Lock()
	m, ok := s.memo[k]
	s.memoMu.Unlock()
	if ok {
		s.hits.Add(1)
		return m.(T), true
	}
	if s.Store != nil && s.Store.Get(k, &v) {
		s.hits.Add(1)
		s.remember(k, v)
		return v, true
	}
	return v, false
}

// remember keeps a served or computed record for the session's later
// batches.
func (s *Session) remember(k Key, v any) {
	s.memoMu.Lock()
	if s.memo == nil {
		s.memo = make(map[Key]any)
	}
	s.memo[k] = v
	s.memoMu.Unlock()
}

// resolve takes one cell as far as it goes without simulating — the
// per-cell decision in front of compute. It reports done when nothing is
// left to do: the Claims gate skipped the cell, or its record was served
// (uploaded and collected), or it is a merge miss (noted). Otherwise the
// caller must compute the cell.
func resolve[T any](s *Session, k Key, i int, collect func(int, T)) (done bool, err error) {
	if s.Claims != nil && !s.Claims(k) {
		return true, nil
	}
	if v, ok := lookup[T](s, k); ok {
		if err := s.upload(k, v); err != nil {
			return true, err
		}
		collect(i, v)
		return true, nil
	}
	if s.Merge {
		s.noteMissing(k)
		return true, nil
	}
	return false, nil
}

// runCell executes one cell under the session policy, computing on the
// calling goroutine. A *CellError panic — the compute's report that the
// cell cannot produce a record — comes back as that error, naming the
// cell; any other panic propagates under the runner contract. A compute
// that fails or panics leaves nothing in the memo.
func runCell[T any](s *Session, spec Spec, i int, compute func(int) T, collect func(int, T)) (err error) {
	k := spec.Key(i)
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
	if done, err := resolve(s, k, i, collect); done {
		return err
	}
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
	s.remember(k, v)
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

// Run executes every registered cell across the pool. Jobs with declared costs are dispatched first, most expensive
// leading (longest-processing-time); the order never affects results,
// only the parallel tail. It returns the first error (store I/O, sink
// upload or a *CellError); other compute panics propagate per the
// runner contract.
func (b *Batch) Run(ctx context.Context) error {
	pool := b.pool
	pool.Order = lptOrder(b.costs)
	return pool.ForEach(ctx, len(b.jobs), func(_ context.Context, i int) error {
		return b.jobs[i].run(b.session)
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
