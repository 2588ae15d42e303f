package results

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Batch accumulates cells from one or more specs and executes them all
// in one dispatch loop, each key once: a run plans every cell its
// experiments read onto one batch, so the workers see the whole matrix
// and no cell is scheduled twice. Cells are independent jobs: compute
// must derive everything from the cell index, and collect must write
// into pre-sized storage (distinct cells may be collected concurrently,
// in any order).
type Batch struct {
	jobs  []job
	byKey map[Key]job
}

// job is one key's cell on a batch, whatever its record type.
type job interface {
	key() Key
	// cost is the cell's relative compute estimate (0 = unknown); Run
	// dispatches the most expensive cells first.
	cost() float64
	run(s *Session) error
}

// cellJob is a key's cell and every collector registered for it.
type cellJob[T any] struct {
	spec     Spec
	i        int
	weight   float64
	compute  func(int) T
	collects []func(int, T)
}

func (j *cellJob[T]) key() Key      { return j.spec.Key(j.i) }
func (j *cellJob[T]) cost() float64 { return j.weight }
func (j *cellJob[T]) run(s *Session) error {
	return runCell(s, j.spec, j.i, j.compute, func(i int, v T) {
		for _, collect := range j.collects {
			collect(i, v)
		}
	})
}

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	return &Batch{byKey: make(map[Key]job)}
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
	j := &cellJob[T]{spec: spec, i: i, weight: cost, compute: compute, collects: []func(int, T){collect}}
	b.byKey[k] = j
	b.jobs = append(b.jobs, j)
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
// cell; any other panic propagates to Run. A compute that fails or
// panics leaves nothing in the memo.
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
	v := compute(i)
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

// Run executes every registered cell under ses (nil: compute each cell,
// remember nothing) on w goroutines, w = min(workers or GOMAXPROCS,
// cells).
//
// Run first stable-sorts the jobs by descending cost, and then a job's
// index is its dispatch position: workers pull the next index from one
// counter, so the most expensive cells start first
// (longest-processing-time) and shrink the tail where the last worker
// finishes a long cell alone. Cells collect into cell-indexed storage,
// so the order never affects results.
//
// After the first failure no worker pulls another job; jobs in flight
// finish. Run reports the failure with the lowest job index, which has
// always run, since every lower index was dispatched before any higher
// one: the same cell at every worker count. An error (store I/O, sink
// upload, a *CellError) is returned; any other panic is re-raised on
// the caller's goroutine as a *PanicError naming the cell.
func (b *Batch) Run(ses *Session, workers int) error {
	sort.SliceStable(b.jobs, func(x, y int) bool { return b.jobs[x].cost() > b.jobs[y].cost() })
	n := len(b.jobs)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		first    = n // lowest failed job index
		firstErr error
		wg       sync.WaitGroup
	)
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := b.runJob(ses, i); err != nil {
					mu.Lock()
					if i < first {
						first, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if pe, ok := firstErr.(*PanicError); ok {
		panic(pe)
	}
	return firstErr
}

// runJob runs job i, returning a panic as a *PanicError that names its
// cell.
func (b *Batch) runJob(ses *Session, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Key: b.jobs[i].key(), Value: v, Stack: debug.Stack()}
		}
	}()
	return b.jobs[i].run(ses)
}

// PanicError carries a compute panic other than a *CellError from the
// worker that recovered it to the caller of Run, which re-raises it.
type PanicError struct {
	// Key names the panicking cell.
	Key Key
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its cell and stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("results: cell %d of %q (schema %d, scale %q) panicked: %v\n%s",
		e.Key.Cell, e.Key.Experiment, e.Key.Schema, e.Key.Scale, e.Value, e.Stack)
}

// Unwrap exposes an error panic value to errors.Is/As.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}
