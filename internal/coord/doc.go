// Package coord is the fault-tolerant distributed sweep coordinator:
// the server behind cmd/ecfd, the retrying HTTP client and lease-loop
// worker behind ecfbench -join, and the lease table both share.
//
// A sweep is a fixed work list of cell keys (enumerated by
// experiments.EnumerateCells, so it cannot drift from the drivers).
// The coordinator owns that list and a content-addressed results.Store;
// workers own nothing durable. The protocol is four idempotent RPCs:
//
//	claim      lease a batch of pending cells (TTL-bounded)
//	heartbeat  extend the worker's leases; learn which were stolen
//	ingest     upload a batch of finished cell records; the ack says
//	           every one of them is durable, and which were duplicates
//	release    return cells early (requeue, or report a failure)
//
// A worker simulates and uploads concurrently: a finished cell's record
// is encoded and queued, and one uploader goroutine sends whatever is
// queued whenever it is free — at most the claim it holds, split at a
// fixed byte cap — so the simulation never waits for the coordinator's
// disk. There is one ingest path and no knob on it: a lone record is a
// batch of one.
//
// # Lease contract
//
// A lease is a TTL on a cell granted to one worker. Holding a lease is
// the only polite way to compute a cell, but it is advisory, not a
// lock: leases exist to stop duplicate work, not to make it unsafe.
// A worker that stops heartbeating loses its leases when they expire;
// the cells return to the pending queue and the next claim hands them
// to someone else (work-stealing from slow, hung, or dead workers).
// Heartbeats report which cells were lost so a worker can stop
// computing stolen work mid-pass. A cell released with a failure (a
// results.CellError: over its event budget, or a transfer that never
// completed) is parked as failed at once and reported in status: cells
// are deterministic, so any other worker would fail it the same way,
// and a worker surrenders it instead of holding its lease until theft.
// The sweep then settles incomplete; a later good ingest un-parks it.
//
// # Idempotency contract
//
// Every cell record is deterministic: any worker computing a cell
// produces the same bytes. Ingest exploits that — the first upload of
// a cell wins, every later upload (a retried RPC whose first attempt
// landed, a stolen-then-revived worker finishing anyway, a replayed
// request, the same cell twice in one batch) is a no-op acknowledged as
// a duplicate, record by record. A batch is validated whole before
// anything is written: one malformed or foreign record refuses the
// request, and nothing of it reaches the store.
//
// # Durability contract: what an ack means
//
// The coordinator lands a batch with one group commit
// (results.Store.IngestBatch): each new record is written to a temp
// file, fsynced and renamed to its final name, then every directory a
// rename touched is fsynced once. Only after that last fsync returns
// does the server mark the batch's cells done and write the ack. So:
//
//   - after an ack, a worker may assume every record of the batch
//     survives a coordinator crash or power loss, and retires those
//     claims; it will never be asked for them again;
//   - before an ack, a worker must assume nothing. A queued or in-flight
//     cell is no longer claimable (the pass will not recompute or
//     re-offer it) but is still held: it is heartbeated, and when the
//     upload fails it is released like any unfinished cell. Nothing is
//     retired without an ack. A pass ends with a flush of the queue, and
//     the first upload error fails the pass.
//
// A coordinator killed inside the commit can leave complete records
// under final names whose directory entry was not yet synced, and temp
// files beside them; it can never leave a half-record under a final
// name. None of those cells was acknowledged, so the next start either
// finds them (done) or does not (pending, recomputed byte-identically).
//
// Once any response announces sweep_done, every cell is done or parked:
// whatever a worker still has queued is a duplicate by definition, and
// the coordinator may already have exited (-exit-when-done). The worker
// drops its queue, abandons the upload in flight and exits cleanly.
//
// # Crash safety and resume
//
// The store is the whole sweep state: on startup the coordinator scans
// it and marks every cell with a well-formed record as done, so a
// restarted `ecfd serve` resumes the sweep instead of restarting it.
// Leases are deliberately not durable — after a restart workers'
// heartbeats report every lease as lost, the workers re-claim, and the
// sweep continues; parked failures are forgotten too, and their cells
// are retried. Nothing else is persisted. Record keys are
// content-addressed — derived from everything a record depends on — so
// sweeps of any scale or work list may share one store: different
// content lands under different keys, and a cell two sweeps share has
// the same bytes in both.
//
// Client RPCs retry transient failures with exponential backoff plus
// jitter; a request body over the server's size limit is refused (413),
// never truncated.
package coord
