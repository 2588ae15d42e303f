// Package results makes experiment cells durable and distributable.
//
// The paper's evaluation regenerates every table and figure from
// hundreds of independent simulation cells. internal/runner fans those
// cells across workers inside one process; this package adds the two
// layers the ROADMAP's multi-machine north star needs on top of it:
//
//   - a cell store: a content-addressed on-disk cache of per-cell
//     records, keyed by a hash of (experiment name, cell index, the
//     Scale encoding, and a per-experiment schema version), with atomic
//     writes and corruption-tolerant reads (Store), and
//   - a cell execution layer: Run / Batch+Add execute a spec's cells
//     through a runner.Pool, serving each cell from the run's own
//     records or the store when a record exists and
//     computing-then-persisting it when not, so caching and sharding
//     apply uniformly to every driver rather than per-driver.
//
// A Session carries the per-invocation policy: which store to use, an
// optional shard restriction (cell index % Count == Index), or merge
// mode, where every cell must come from the store and nothing is
// simulated. It also remembers, for as long as it lives, every record it
// has served or computed, keyed like the store: a cell's record is
// sourced in the order memo, store, compute, so within one run every
// distinct cell is simulated — or read from disk and decoded — at most
// once, however many drivers render it, with or without a store.
// Splitting a sweep across machines is then
//
//	host-a$ ecfbench -exp all -cache-dir cache -shard 0/2
//	host-b$ ecfbench -exp all -cache-dir cache -shard 1/2
//	host-a$ rsync -a host-b:cache/ cache/
//	host-a$ ecfbench -exp all -cache-dir cache -merge
//
// Records are keyed by content, not by which driver asked: drivers that
// share cells (Figure 2/6/7/9 all sweep the default-scheduler grid;
// Table 4 aggregates Figure 23's runs) automatically share records.
//
// Shared records are shared memory: the value one collector receives is
// the value every other collector of that key receives in the same run.
// A collected record — and every slice, map and pointee reachable from
// it — is read-only to drivers and renderers alike; a collector that
// needs to sort, append to or rescale part of a record copies that part
// first. The session never clones on their behalf.
//
// Determinism contract: a cached record must decode back to exactly the
// value that was computed, so a warm run renders byte-identically to a
// cold one. Records are JSON whose fields are either concrete types
// (float64, integers, time.Duration, strings, slices, structs), which
// Go's encoding round-trips exactly, or types that marshal themselves
// exactly and name their form through a RecordFormat method, which the
// payload fingerprint then covers (see fingerprint.go). The one such
// type is metrics.DelayDist, the packed per-packet delay distribution.
//
// Record size is read cost: a warm run decodes every byte of every
// record it renders. Per-cell summaries and short series are fine as
// plain JSON; a per-packet series (tens of thousands of samples) must
// not be stored as a JSON array of numbers — record it as a
// metrics.DelayDist, or give its type a packed form the same way.
package results

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec identifies one family of cells: a sub-experiment whose cell
// index fully determines the cell's parameters. It is also the
// granularity at which cache entries go stale together: a schema bump
// or scale change strands the whole family.
type Spec struct {
	// Experiment names the cell family (e.g. "grid/ecf", "fig16").
	// Drivers that share cells use the same name and get each other's
	// records for free.
	Experiment string
	// Schema is the experiment's record-schema version. Bump it
	// whenever the driver's cell semantics change (different seeds,
	// different record contents, different simulation behaviour), so
	// stale records can never be mistaken for current ones.
	Schema int
	// Scale is the canonical encoding of the scale parameters the cell
	// content depends on (experiments.Scale minus Workers and cache
	// policy, which never affect results).
	Scale string
}

// key builds the store key for one cell of the spec.
func (s Spec) key(cell int) Key {
	return Key{Experiment: s.Experiment, Cell: cell, Schema: s.Schema, Scale: s.Scale}
}

// less orders specs by (experiment, scale, schema) — the order every
// listing of families, audit lines and missing cells uses.
func (s Spec) less(o Spec) bool {
	if s.Experiment != o.Experiment {
		return s.Experiment < o.Experiment
	}
	if s.Scale != o.Scale {
		return s.Scale < o.Scale
	}
	return s.Schema < o.Schema
}

// Key identifies one cell's record in the store.
type Key struct {
	Experiment string `json:"experiment"`
	Cell       int    `json:"cell"`
	Schema     int    `json:"schema"`
	Scale      string `json:"scale"`
}

// spec returns the family the key's cell belongs to.
func (k Key) spec() Spec {
	return Spec{Experiment: k.Experiment, Schema: k.Schema, Scale: k.Scale}
}

// hash returns the record's content address: a 128-bit hex digest over
// an unambiguous (length-prefixed) encoding of the key fields.
func (k Key) hash() string {
	h := sha256.New()
	var buf [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr(k.Experiment)
	writeInt(k.Cell)
	writeInt(k.Schema)
	writeStr(k.Scale)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Shard restricts a run to the cells with index % Count == Index. The
// zero value (Count 0) covers every cell, as does Count 1.
type Shard struct {
	Index, Count int
}

// ParseShard parses the -shard flag syntax "i/n" with 0 <= i < n.
func ParseShard(s string) (Shard, error) {
	idx, cnt, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard %q: want \"i/n\" (e.g. 0/2)", s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(cnt)
	if err1 != nil || err2 != nil || n < 1 || i < 0 || i >= n {
		return Shard{}, fmt.Errorf("shard %q: want \"i/n\" with 0 <= i < n", s)
	}
	return Shard{Index: i, Count: n}, nil
}

// Covers reports whether the shard runs the given cell.
func (sh Shard) Covers(cell int) bool {
	return sh.Count <= 1 || cell%sh.Count == sh.Index
}

// String renders the flag syntax back.
func (sh Shard) String() string {
	if sh.Count <= 1 {
		return "full"
	}
	return fmt.Sprintf("%d/%d", sh.Index, sh.Count)
}

// Sink receives computed (or cache-served) cell records in addition to
// the session's local store — the distributed upload path: a join-mode
// worker's sink serializes the record in Put and uploads it to the
// coordinator in the background, so a nil return means accepted, not
// yet delivered; a failed upload fails a later Put and the flush that
// ends the pass (see internal/coord). Put may be called from several
// worker goroutines at once and must be idempotent: under the determinism
// contract a cell's record is the same bytes no matter who computes it,
// so delivering one record twice (a retried upload, a stolen-then-
// revived lease) must converge on a single stored copy.
type Sink interface {
	Put(k Key, v any) error
}

// Session is the per-invocation cache/shard policy shared by every
// driver of one run, the run's in-memory record tier, and the
// hit/computed counters the harness reports. The zero value computes
// each distinct cell once in-process with no persistence; a nil
// *Session computes every cell every time it is asked for. Counters and
// the memo are safe for concurrent use. A Session must not be copied
// after first use.
type Session struct {
	// Store persists cell records; nil disables persistence (records
	// are still shared within the run).
	Store *Store
	// Shard restricts which cells run (zero value: all of them).
	Shard Shard
	// Merge serves every cell from the store and simulates nothing; a
	// missing record is an error naming the cell — or, with
	// CollectMisses, a note in the session's missing-cell list so one
	// merge pass reports every hole instead of the first.
	Merge bool
	// CollectMisses, with Merge, records missing cells (MissingCells)
	// and leaves their slots at zero values instead of failing the run
	// on the first hole. The caller must treat any recorded miss as a
	// failed merge: result structures touched by missing cells are
	// partial and must not be rendered as complete reports.
	CollectMisses bool
	// Claims, when non-nil, restricts computation to the cells it
	// reports true for — the distributed lease gate: a join-mode worker
	// computes exactly its leased cells and skips everything else
	// (including memo and store reads). It is consulted again between compute
	// and upload, so a lease lost mid-pass stops claiming new cells
	// immediately. Must be safe for concurrent use.
	Claims func(Key) bool
	// Sink, when non-nil, additionally receives every record the
	// session serves or computes (after Store persistence) — the
	// join-mode upload path. A Sink error fails the cell.
	Sink Sink
	// CellTimeout, when positive, bounds each computed cell's wall
	// clock. A cell that exceeds it fails with a *CellTimeoutError
	// naming the experiment and cell index — loudly surrendering the
	// cell instead of wedging the whole sweep. The overrun computation
	// itself cannot be preempted (the simulator runs no cancellation
	// points on its hot path, by design); its goroutine is abandoned
	// and its result discarded, which a process that is about to exit
	// or surrender its lease can afford. Zero preserves the default:
	// no deadline.
	CellTimeout time.Duration
	// Enumerate records which cell families the run would touch without
	// reading or computing anything: every cell is skipped after noting
	// its spec. Driving the full experiment catalog through an
	// enumerating session yields the active matrix — the ground truth
	// -cache-prune keeps and ecfd leases out (derived from the very code
	// paths that build the specs, so it cannot drift from the drivers).
	Enumerate bool

	memoHits  atomic.Int64
	storeHits atomic.Int64
	computed  atomic.Int64

	// memo is the run-scoped record tier: one slot per key served or
	// computed so far, or being produced right now (see lookup).
	memoMu sync.Mutex
	memo   map[Key]*memoSlot

	durMu    sync.Mutex
	cellDurs []time.Duration

	cellsMu sync.Mutex
	cells   map[Spec]int

	missMu  sync.Mutex
	missing map[Key]struct{}
}

// noteCell records one cell's spec during an enumerating run: the
// family's cell count is the highest index seen plus one.
func (s *Session) noteCell(spec Spec, i int) {
	s.cellsMu.Lock()
	if s.cells == nil {
		s.cells = make(map[Spec]int)
	}
	if i+1 > s.cells[spec] {
		s.cells[spec] = i + 1
	}
	s.cellsMu.Unlock()
}

// noteMissing records a merge miss under CollectMisses.
func (s *Session) noteMissing(k Key) {
	s.missMu.Lock()
	if s.missing == nil {
		s.missing = make(map[Key]struct{})
	}
	s.missing[k] = struct{}{}
	s.missMu.Unlock()
}

// MissingCells returns the cells a CollectMisses merge pass could not
// serve, sorted by (experiment, scale, schema, cell). Empty means the
// merge was complete.
func (s *Session) MissingCells() []Key {
	if s == nil {
		return nil
	}
	s.missMu.Lock()
	defer s.missMu.Unlock()
	out := make([]Key, 0, len(s.missing))
	for k := range s.missing {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].spec(), out[j].spec(); a != b {
			return a.less(b)
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// MissingCount returns how many merge misses have been collected so
// far — the cheap "did this experiment leave holes" probe a harness
// checks around each driver.
func (s *Session) MissingCount() int {
	if s == nil {
		return 0
	}
	s.missMu.Lock()
	defer s.missMu.Unlock()
	return len(s.missing)
}

// CellFamily pairs one spec with its cell count — one entry of the
// enumerated work list a sweep coordinator hands out as leases.
type CellFamily struct {
	Spec  Spec
	Cells int
}

// ActiveCellFamilies returns every (spec, cell count) pair noted by an
// enumerating run, sorted by (experiment, scale, schema). Expanding
// each family's cells 0..Cells-1 through Spec.Key yields the complete,
// stable cell work list of a catalog run at the enumerated scale.
func (s *Session) ActiveCellFamilies() []CellFamily {
	s.cellsMu.Lock()
	defer s.cellsMu.Unlock()
	out := make([]CellFamily, 0, len(s.cells))
	for spec, n := range s.cells {
		out = append(out, CellFamily{Spec: spec, Cells: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.less(out[j].Spec) })
	return out
}

// Key builds the store key for one cell of the spec — the exported
// form of the internal key derivation, for coordinators enumerating
// work lists.
func (s Spec) Key(cell int) Key { return s.key(cell) }

// noteDuration records one computed cell's wall clock.
func (s *Session) noteDuration(d time.Duration) {
	s.durMu.Lock()
	s.cellDurs = append(s.cellDurs, d)
	s.durMu.Unlock()
}

// TakeCellDurations drains the wall-clock samples of every cell
// computed since the last call — the per-experiment collection point
// for the run report's cell-duration percentiles. Cache hits record
// nothing, so the sample population (though not the values) is
// independent of worker count.
func (s *Session) TakeCellDurations() []time.Duration {
	if s == nil {
		return nil
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	out := s.cellDurs
	s.cellDurs = nil
	return out
}

// Stats returns how many cells were served without simulating — from
// the run's in-memory records or from the store — and how many were
// simulated, since the session was created.
func (s *Session) Stats() (hits, computed int64) {
	if s == nil {
		return 0, 0
	}
	return s.memoHits.Load() + s.storeHits.Load(), s.computed.Load()
}

// MemoryHits returns how many of Stats' hits were served from the run's
// in-memory records; the rest were read from the store.
func (s *Session) MemoryHits() int64 {
	if s == nil {
		return 0
	}
	return s.memoHits.Load()
}

// Sharded reports whether the session restricts cell coverage. A
// sharded run fills the store but leaves uncovered slots of every
// driver's result structure at their zero values, so its rendered
// reports are partial — render from a -merge pass instead.
func (s *Session) Sharded() bool {
	return s != nil && s.Shard.Count > 1
}

// MissingCellError reports a merge pass that needed a record no shard
// had produced.
type MissingCellError struct {
	Key Key
}

// Error names the missing cell and how to produce it.
func (e *MissingCellError) Error() string {
	return fmt.Sprintf("results: cell %d of %q (schema %d, scale %q) is not in the cache; run the shard covering it (and every other cell) before -merge",
		e.Key.Cell, e.Key.Experiment, e.Key.Schema, e.Key.Scale)
}

// CellTimeoutError reports a computed cell that exceeded the session's
// CellTimeout. It names the exact cell so an operator (or a join-mode
// worker surrendering the cell back to its coordinator) can act on it.
type CellTimeoutError struct {
	Key     Key
	Timeout time.Duration
}

// Error names the wedged cell and the deadline it blew.
func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("results: cell %d of %q (schema %d, scale %q) exceeded the %v cell timeout; surrendered (rerun without -cell-timeout to let it finish, or investigate the cell)",
		e.Key.Cell, e.Key.Experiment, e.Key.Schema, e.Key.Scale, e.Timeout)
}

// FatalError wraps an operational results failure (store I/O, a merge
// miss) raised out of an experiment driver as a panic — the drivers
// return no errors by design. Harnesses recover it at the top level and
// exit with the message instead of a stack trace.
type FatalError struct {
	Err error
}

// Error delegates to the wrapped error.
func (e *FatalError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *FatalError) Unwrap() error { return e.Err }
