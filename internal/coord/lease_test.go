package coord

import (
	"testing"
	"time"

	"repro/internal/results"
)

func testCells(n int) []results.Key {
	sp := results.Spec{Experiment: "unit/sweep", Schema: 1, Scale: "s"}
	out := make([]results.Key, n)
	for i := range out {
		out[i] = sp.Key(i)
	}
	return out
}

func TestLeaseTableClaimExpireSteal(t *testing.T) {
	cells := testCells(4)
	tab := newLeaseTable(cells, 10*time.Second)
	t0 := time.Unix(1000, 0)

	got := tab.claim("a", 3, t0)
	if len(got) != 3 || got[0] != cells[0] || got[2] != cells[2] {
		t.Fatalf("claim = %v", got)
	}
	// Nothing left but cell 3.
	if rest := tab.claim("b", 10, t0); len(rest) != 1 || rest[0] != cells[3] {
		t.Fatalf("second claim = %v", rest)
	}
	// Before the TTL nothing is stealable.
	if s := tab.claim("b", 10, t0.Add(9*time.Second)); len(s) != 0 {
		t.Fatalf("claim before expiry stole %v", s)
	}
	// After a's TTL its three cells are stolen; b's lease (taken at t0
	// too) expires equally — but b re-claims them all.
	steal := tab.claim("b", 10, t0.Add(11*time.Second))
	if len(steal) != 4 {
		t.Fatalf("claim after expiry = %d cells, want all 4 back", len(steal))
	}
	if tab.stolen != 4 {
		t.Fatalf("stolen counter = %d, want 4", tab.stolen)
	}
}

func TestLeaseTableHeartbeatKeepsAndReportsLost(t *testing.T) {
	cells := testCells(2)
	tab := newLeaseTable(cells, 10*time.Second)
	t0 := time.Unix(1000, 0)
	tab.claim("a", 2, t0)

	// Heartbeats at 8s intervals keep the lease alive far past one TTL.
	now := t0
	for i := 0; i < 5; i++ {
		now = now.Add(8 * time.Second)
		if lost := tab.heartbeat("a", cells, now); len(lost) != 0 {
			t.Fatalf("heartbeat %d lost %v", i, lost)
		}
	}
	if got := tab.claim("b", 10, now); len(got) != 0 {
		t.Fatalf("heartbeated leases were stolen: %v", got)
	}

	// Silence past the TTL: the next heartbeat reports both cells lost.
	now = now.Add(11 * time.Second)
	if lost := tab.heartbeat("a", cells, now); len(lost) != 2 {
		t.Fatalf("post-expiry heartbeat lost %v, want both", lost)
	}
	// A heartbeat for cells never leased to the worker reports them lost.
	tab2 := newLeaseTable(cells, 10*time.Second)
	tab2.claim("a", 2, t0)
	if lost := tab2.heartbeat("b", cells, t0); len(lost) != 2 {
		t.Fatalf("foreign heartbeat lost %v, want both", lost)
	}
}

func TestLeaseTableMarkDoneIsIdempotentAndUnpoisons(t *testing.T) {
	cells := testCells(1)
	tab := newLeaseTable(cells, 10*time.Second)
	t0 := time.Unix(1000, 0)

	// A failed release parks the cell.
	tab.claim("a", 1, t0)
	tab.release("a", cells, true, "sim blew up", t0)
	if tab.failed != 1 {
		t.Fatalf("failed = %d, want 1", tab.failed)
	}
	if got := tab.claim("b", 1, t0); len(got) != 0 {
		t.Fatalf("failed cell was re-leased: %v", got)
	}
	if fc := tab.failedCells(); len(fc) != 1 || fc[0].LastError != "sim blew up" {
		t.Fatalf("failedCells = %+v", fc)
	}
	if settled, complete := tab.settled(); !settled || complete {
		t.Fatalf("settled=%v complete=%v, want settled but incomplete", settled, complete)
	}

	// A late successful ingest un-poisons the cell.
	added, known := tab.markDone(cells[0])
	if !added || !known {
		t.Fatalf("markDone on failed cell = %v, %v", added, known)
	}
	if tab.failed != 0 || tab.done != 1 {
		t.Fatalf("after un-poison: failed=%d done=%d", tab.failed, tab.done)
	}
	if settled, complete := tab.settled(); !settled || !complete {
		t.Fatalf("settled=%v complete=%v, want both", settled, complete)
	}

	// Duplicates and foreign cells.
	if added, known := tab.markDone(cells[0]); added || !known {
		t.Fatalf("duplicate markDone = %v, %v", added, known)
	}
	foreign := results.Key{Experiment: "other", Cell: 0, Schema: 1, Scale: "s"}
	if added, known := tab.markDone(foreign); added || known {
		t.Fatalf("foreign markDone = %v, %v", added, known)
	}
}

func TestLeaseTableFailedReleaseParksAtOnce(t *testing.T) {
	cells := testCells(2)
	tab := newLeaseTable(cells, 10*time.Second)
	t0 := time.Unix(1000, 0)

	// A cell fails the same way on every worker, so its first failed
	// release parks it: no other worker is handed it again.
	if got := tab.claim("w", 2, t0); len(got) != 2 {
		t.Fatalf("claim = %v", got)
	}
	tab.release("w", cells[:1], true, "over its event budget", t0)
	if tab.failed != 1 || tab.status[0] != cellFailed {
		t.Fatalf("failed=%d status=%d, want cell 0 parked on its first failure", tab.failed, tab.status[0])
	}
	if fc := tab.failedCells(); len(fc) != 1 || fc[0].Key != cells[0] || fc[0].LastError != "over its event budget" {
		t.Fatalf("failedCells = %+v", fc)
	}

	// A clean (failed=false) release requeues.
	tab.release("w", cells[1:], false, "", t0)
	if got := tab.claim("v", 2, t0); len(got) != 1 || got[0] != cells[1] {
		t.Fatalf("claim after the releases = %v, want only the cleanly released cell 1", got)
	}
	// A failed release from a worker that does not hold the cell is a
	// no-op.
	tab.release("w", cells[1:], true, "stale", t0)
	if tab.failed != 1 || tab.status[1] != cellLeased || tab.holder[1] != "v" {
		t.Fatalf("a stale failed release from a non-holder parked cell 1: failed=%d status=%d holder=%q", tab.failed, tab.status[1], tab.holder[1])
	}
}

func TestLeaseTableDoneCellsNeverRequeue(t *testing.T) {
	cells := testCells(2)
	tab := newLeaseTable(cells, 10*time.Second)
	t0 := time.Unix(1000, 0)
	tab.claim("a", 2, t0)
	tab.markDone(cells[0])

	// The done cell does not rejoin the queue even after its holder's
	// lease expires.
	if got := tab.claim("b", 10, t0.Add(time.Minute)); len(got) != 1 || got[0] != cells[1] {
		t.Fatalf("claim after expiry = %v, want only cell 1", got)
	}
	done, leased, pending, failed := tab.counts(t0.Add(time.Minute))
	if done != 1 || leased != 1 || pending != 0 || failed != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", done, leased, pending, failed)
	}
}
