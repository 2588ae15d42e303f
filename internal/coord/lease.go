package coord

import (
	"time"

	"repro/internal/results"
)

// cellStatus is one cell's position in the sweep lifecycle.
type cellStatus uint8

const (
	cellPending cellStatus = iota // waiting in the queue
	cellLeased                    // held by a worker, TTL-bounded
	cellDone                      // record ingested
	cellFailed                    // released as failed; parked
)

// leaseTable tracks every cell of the sweep: its status, current
// holder, lease expiry, and why a parked cell failed. It is not
// goroutine-safe; the Server serializes access under its mutex (and
// tests drive it directly with a fake clock).
type leaseTable struct {
	cells   []results.Key
	index   map[results.Key]int
	status  []cellStatus
	holder  []string
	expiry  []time.Time
	lastWhy []string

	// queue holds pending cell indexes in issue order. Cells enter in
	// work-list order, so batches stay family-contiguous; expired and
	// released cells rejoin at the tail.
	queue []int

	ttl time.Duration

	done   int
	failed int
	stolen int // expired leases reclaimed, cumulative
}

// newLeaseTable builds the table over the sweep's work list.
func newLeaseTable(cells []results.Key, ttl time.Duration) *leaseTable {
	t := &leaseTable{
		cells:   cells,
		index:   make(map[results.Key]int, len(cells)),
		status:  make([]cellStatus, len(cells)),
		holder:  make([]string, len(cells)),
		expiry:  make([]time.Time, len(cells)),
		lastWhy: make([]string, len(cells)),
		queue:   make([]int, 0, len(cells)),
		ttl:     ttl,
	}
	for i, k := range cells {
		t.index[k] = i
		t.queue = append(t.queue, i)
	}
	return t
}

// expire reclaims every lease whose TTL has passed — the work-stealing
// half of the protocol. Expired cells rejoin the pending queue; the
// holder finds out through its next heartbeat (lost) or upload
// (duplicate).
func (t *leaseTable) expire(now time.Time) int {
	n := 0
	for i, st := range t.status {
		if st == cellLeased && now.After(t.expiry[i]) {
			t.status[i] = cellPending
			t.holder[i] = ""
			t.queue = append(t.queue, i)
			n++
		}
	}
	t.stolen += n
	return n
}

// claim leases up to max pending cells to worker.
func (t *leaseTable) claim(worker string, max int, now time.Time) []results.Key {
	t.expire(now)
	if max <= 0 {
		return nil
	}
	var out []results.Key
	for len(out) < max && len(t.queue) > 0 {
		i := t.queue[0]
		t.queue = t.queue[1:]
		if t.status[i] != cellPending {
			continue // done or failed while queued (stale queue entry)
		}
		t.status[i] = cellLeased
		t.holder[i] = worker
		t.expiry[i] = now.Add(t.ttl)
		out = append(out, t.cells[i])
	}
	return out
}

// heartbeat extends worker's leases on the given cells and returns the
// ones it no longer holds — stolen after expiry, finished by someone
// else, or never leased to it.
func (t *leaseTable) heartbeat(worker string, keys []results.Key, now time.Time) (lost []results.Key) {
	t.expire(now)
	for _, k := range keys {
		i, ok := t.index[k]
		if !ok || t.status[i] != cellLeased || t.holder[i] != worker {
			lost = append(lost, k)
			continue
		}
		t.expiry[i] = now.Add(t.ttl)
	}
	return lost
}

// markDone records a successful ingest for k, whoever held the lease —
// a stolen-then-revived worker's record is as good as anyone's. It
// reports false when the cell was already done (a duplicate ingest) or
// is not part of this sweep.
func (t *leaseTable) markDone(k results.Key) (added, known bool) {
	i, ok := t.index[k]
	if !ok {
		return false, false
	}
	if t.status[i] == cellDone {
		return false, true
	}
	if t.status[i] == cellFailed {
		t.failed-- // a late successful record un-poisons the cell
	}
	t.status[i] = cellDone
	t.holder[i] = ""
	t.done++
	return true, true
}

// release returns worker's leases on the given cells. A release with
// failed=true parks the cell as failed at once instead of requeueing
// it: a cell fails deterministically (results.CellError), so another
// worker would only reproduce the failure. Releases for cells the
// worker does not hold are ignored (stolen or finished already).
func (t *leaseTable) release(worker string, keys []results.Key, failed bool, why string, now time.Time) {
	t.expire(now)
	for _, k := range keys {
		i, ok := t.index[k]
		if !ok || t.status[i] != cellLeased || t.holder[i] != worker {
			continue
		}
		t.holder[i] = ""
		if failed {
			t.lastWhy[i] = why
			t.status[i] = cellFailed
			t.failed++
			continue
		}
		t.status[i] = cellPending
		t.queue = append(t.queue, i)
	}
}

// counts snapshots the table for status reporting.
func (t *leaseTable) counts(now time.Time) (done, leased, pending, failed int) {
	t.expire(now)
	for _, st := range t.status {
		switch st {
		case cellDone:
			done++
		case cellLeased:
			leased++
		case cellPending:
			pending++
		case cellFailed:
			failed++
		}
	}
	return
}

// failedCells lists the parked cells with their failure reasons.
func (t *leaseTable) failedCells() []FailedCell {
	var out []FailedCell
	for i, st := range t.status {
		if st == cellFailed {
			out = append(out, FailedCell{Key: t.cells[i], LastError: t.lastWhy[i]})
		}
	}
	return out
}

// settled reports whether no work remains: every cell is done or
// parked as failed. complete additionally requires zero failures.
func (t *leaseTable) settled() (settled, complete bool) {
	n := t.done + t.failed
	return n == len(t.cells), t.done == len(t.cells)
}
