// Package results makes experiment cells durable, shareable and
// parallel.
//
// The paper's evaluation regenerates every table and figure from
// hundreds of independent simulation cells. This package holds the two
// layers every run of them goes through:
//
//   - a cell store: a content-addressed on-disk cache of per-cell
//     records, keyed by a hash of (family name, cell index, a digest of
//     what the family's cells simulate, and the record format's
//     version), with atomic writes and corruption-tolerant reads
//     (Store), and
//   - a cell execution layer: Batch and AddCell execute specs' cells in
//     one dispatch loop across workers, most expensive first, each key
//     once however many collectors registered it, serving each cell
//     from the session's records or the store when a record exists and
//     computing-then-persisting it when not, so caching and sharding
//     apply uniformly to every driver rather than per-driver.
//
// A Session carries the per-invocation policy in four fields: Store
// (where records persist), Merge (serve every cell from the store,
// simulate nothing, and note each miss), Claims (which cells this run
// touches at all) and Sink (where served and computed records are also
// uploaded). Claims is the one per-cell skip gate, and two callers
// build it: a -shard i/n pass claims the cells with index%n == i, and a
// join-mode worker claims its leases. A session also remembers, for as
// long as it lives, every record it has served or computed, keyed like
// the store: a cell's record is sourced in the order memo, store,
// compute. A run plans all its cells onto one batch, so within it each
// distinct cell is simulated — or read from disk and decoded — once,
// with or without a store; the memo serves the batches a session runs
// after that one. That order has no exception: tracing a cell runs its
// scenario outside any session (experiments.Trace). Splitting a sweep
// across machines is then
//
//	host-a$ ecfbench -exp all -cache-dir cache -shard 0/2
//	host-b$ ecfbench -exp all -cache-dir cache -shard 1/2
//	host-a$ rsync -a host-b:cache/ cache/
//	host-a$ ecfbench -exp all -cache-dir cache -merge
//
// Records are keyed by content, not by which driver asked: drivers that
// share cells (Figure 2/6/7/9 all sweep the default-scheduler grid;
// Table 4 aggregates Figure 23's runs) automatically share records. The
// package treats a key's fields as opaque and the key as a record's whole
// identity: a record is present when its file decodes under its key
// with a payload that is present and not null, for Get, Has,
// IngestBatch, Audit and Prune alike (Get also requires the payload to
// decode into its target type). internal/experiments
// derives keys from its cell families (see its package doc), so a key
// changes whenever what its cell simulates or the shape of what it keeps
// does, and a record under an old key is a stranded group that
// -cache-stats lists and -cache-prune removes.
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
// key then covers (internal/experiments folds a record type's JSON shape,
// RecordFormat names included, into its family's Scale). There are two
// such types, each decoded only after its tokens are checked against its
// count. metrics.DelayDist is the per-packet delay distribution: integer
// nanoseconds, stored as varint gaps with each run of equal samples
// folded into one zero gap and a length. metrics.Series is a sampled
// trace (the CWND and send-buffer series of the "sampled" family):
// float64 samples, stored as varints of each sample's bits XORed with
// the previous one's. A change of either form renames its RecordFormat,
// which re-keys the families holding it: their cells are computed once
// more.
//
// Record size is read cost: a warm run decodes every byte of every
// record it renders, and the 130 delay records are four fifths of a
// full-scale store's 2.6 MB of records. Per-cell summaries and short
// series are fine as plain JSON; a per-packet or per-sample series (tens
// of thousands of samples, or thousands per subflow) must not be stored
// as a JSON array of numbers — record it as a metrics.DelayDist or a
// metrics.Series, or give its type a packed form the same way. The
// sampled traces were such arrays until the "sampled/0.3-8.6" family
// re-keyed once to Series; -cache-prune clears its old group.
package results

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Spec identifies one family of cells: a sub-experiment whose cell
// index fully determines the cell's parameters. It is also the
// granularity at which cache entries go stale together: a change of
// Schema or Scale strands the whole family.
type Spec struct {
	// Experiment names the cell family (e.g. "grid/ecf", "fig16").
	// Drivers that share cells use the same name and get each other's
	// records for free.
	Experiment string
	// Schema is the version of the family's record format. Bump it
	// whenever what a record holds or how it is derived changes, so
	// stale records can never be mistaken for current ones.
	Schema int
	// Scale encodes everything the cells' content depends on — in
	// internal/experiments a digest of the family's scenarios — and
	// nothing that never affects it (worker count, cache policy).
	Scale string
}

// Key builds the store key for one cell of the spec.
func (s Spec) Key(cell int) Key {
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
// hit/computed counters ecfbench's run: line reports; it times nothing.
// The zero value computes each distinct cell once in-process with no
// persistence; a nil *Session computes each cell of every batch and
// remembers nothing. Counters and the memo are safe for concurrent use.
// A Session must not be copied after first use.
type Session struct {
	// Store persists cell records; nil disables persistence (records
	// are still shared within the run).
	Store *Store
	// Merge serves every cell from the store and simulates nothing. A
	// missing record is noted in the session's missing-cell list
	// (MissingCells) and its slot left at the zero value, so one merge
	// pass reports every hole instead of the first. The caller must
	// treat any noted miss as a failed merge: result structures touched
	// by missing cells are partial and must not be rendered as complete
	// reports.
	Merge bool
	// Claims, when non-nil, is the one per-cell skip gate: a cell it
	// reports false for is skipped before anything else — no memo or
	// store read, no compute, no collect. A shard pass and a join-mode
	// worker's leases are Claims predicates. It is consulted again
	// between compute and upload, so a lease lost mid-pass stops
	// claiming new cells immediately. Must be safe for concurrent use.
	Claims func(Key) bool
	// Sink, when non-nil, additionally receives every record the
	// session serves or computes (after Store persistence) — the
	// join-mode upload path. A Sink error fails the cell.
	Sink Sink

	hits     atomic.Int64
	computed atomic.Int64

	// memo is the session's record tier: every record served or
	// computed so far, by key (see lookup).
	memoMu sync.Mutex
	memo   map[Key]any

	missMu  sync.Mutex
	missing map[Key]struct{}
}

// noteMissing records a merge miss.
func (s *Session) noteMissing(k Key) {
	s.missMu.Lock()
	if s.missing == nil {
		s.missing = make(map[Key]struct{})
	}
	s.missing[k] = struct{}{}
	s.missMu.Unlock()
}

// MissingCells returns the cells a merge pass could not
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

// Stats returns how many cells were served without simulating — from
// the session's memo or from the store — and how many were simulated,
// since the session was created.
func (s *Session) Stats() (hits, computed int64) {
	if s == nil {
		return 0, 0
	}
	return s.hits.Load(), s.computed.Load()
}

// CellError reports a cell that cannot produce a record, for a reason
// that is the cell's own and so the same on every host (a simulation
// over its event budget, a transfer that never completed). Drivers
// return no errors, so a compute panics with it, Key unset; the batch
// fills in the key and fails the cell with it.
type CellError struct {
	Key Key
	Err error
}

// Error names the failed cell and the cause.
func (e *CellError) Error() string {
	return fmt.Sprintf("results: cell %d of %q (schema %d, scale %q) failed: %v",
		e.Key.Cell, e.Key.Experiment, e.Key.Schema, e.Key.Scale, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// FatalError wraps an operational results failure (store I/O, a sink
// upload, a failed cell) raised out of an experiment driver as a panic
// — the drivers return no errors by design. Harnesses recover it at the
// top level and exit with the message instead of a stack trace.
type FatalError struct {
	Err error
}

// Error delegates to the wrapped error.
func (e *FatalError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *FatalError) Unwrap() error { return e.Err }
