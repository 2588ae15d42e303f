package coord

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/results"
)

// claimSet is the worker's live view of its leases. A held cell is
// either claimable — the Claims gate a catalog pass consults per cell
// says compute it — or queued: its record is with the uploader, so the
// pass must not compute or offer it again, but the lease is still ours
// to heartbeat and, on failure, release until the coordinator's ack
// retires it. Safe for concurrent use (pool workers, the uploader and
// the heartbeat goroutine touch it together).
type claimSet struct {
	mu   sync.Mutex
	held map[results.Key]bool // value: still claimable
}

func newClaimSet(cells []results.Key) *claimSet {
	s := &claimSet{held: make(map[results.Key]bool, len(cells))}
	for _, k := range cells {
		s.held[k] = true
	}
	return s
}

// covers is the results.Session.Claims gate.
func (s *claimSet) covers(k results.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held[k]
}

// queue moves a claimable cell to queued and reports whether it did:
// false means the cell was already queued (a key shared by two specs of
// one pass) or is no longer held (stolen), and its record is not wanted.
func (s *claimSet) queue(k results.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.held[k] {
		return false
	}
	s.held[k] = false
	return true
}

// drop forgets cells without an ack: stolen leases a heartbeat
// reported, a surrendered cell. Claimable ones stop being computed
// immediately.
func (s *claimSet) drop(keys []results.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.held, k)
	}
}

// keys lists every cell still held, claimable or queued — what a pass
// heartbeats for, and what it releases when it ends.
func (s *claimSet) keys() []results.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]results.Key, 0, len(s.held))
	for k := range s.held {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		return a.Cell < b.Cell
	})
	return out
}

// ingestBatchBytes caps the record bytes of one ingest request, well
// under the server's maxBodyBytes: a claim's worth of the largest
// records (hundreds of KB each) goes up in a few requests, not one.
const ingestBatchBytes = 8 << 20

// uploader is one pass's results.Sink: Put encodes the record on the
// calling goroutine and queues it; a single goroutine uploads whatever
// is queued whenever it is free, so simulation never waits for the
// coordinator's fsyncs. The queue needs no bound of its own — a cell is
// queued at most once, so it never holds more than the claim. A cell's
// claim is retired only by the ack of the batch that carried it.
type uploader struct {
	client *Client
	claims *claimSet
	cancel context.CancelFunc // aborts an in-flight RPC on settle
	done   chan struct{}      // closed when the goroutine has exited

	mu         sync.Mutex
	wake       *sync.Cond
	queue      []IngestRecord
	closed     bool  // flush was called: exit once the queue drains
	sweepDone  bool  // a response announced sweep_done: drop everything
	err        error // first upload failure; fails later Puts and flush
	uploaded   int
	duplicates int
}

func startUploader(ctx context.Context, client *Client, claims *claimSet) *uploader {
	ctx, cancel := context.WithCancel(ctx)
	u := &uploader{client: client, claims: claims, cancel: cancel, done: make(chan struct{})}
	u.wake = sync.NewCond(&u.mu)
	go u.run(ctx)
	return u
}

// Put implements results.Sink.
func (u *uploader) Put(k results.Key, v any) error {
	raw, err := results.EncodeRecord(k, v)
	if err != nil {
		return err
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return u.err
	}
	if u.sweepDone || !u.claims.queue(k) {
		return nil
	}
	u.queue = append(u.queue, IngestRecord{Cell: k, Record: raw})
	u.wake.Signal()
	return nil
}

// next blocks until there is something to upload and returns the
// longest queue prefix within ingestBatchBytes (at least one record),
// or nil when the uploader should exit.
func (u *uploader) next() []IngestRecord {
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(u.queue) == 0 && !u.closed && !u.sweepDone {
		u.wake.Wait()
	}
	if u.sweepDone || len(u.queue) == 0 {
		return nil
	}
	n, size := 0, 0
	for n < len(u.queue) && (n == 0 || size+len(u.queue[n].Record) <= ingestBatchBytes) {
		size += len(u.queue[n].Record)
		n++
	}
	batch := u.queue[:n:n]
	u.queue = u.queue[n:]
	return batch
}

func (u *uploader) run(ctx context.Context) {
	defer close(u.done)
	for {
		batch := u.next()
		if batch == nil {
			return
		}
		resp, err := u.client.ingestBatch(ctx, batch)
		u.mu.Lock()
		if err == nil {
			acked := make([]results.Key, len(batch))
			for i, rec := range batch {
				acked[i] = rec.Cell
				if resp.Duplicate[i] {
					u.duplicates++
				}
			}
			u.claims.drop(acked)
			u.uploaded += len(batch)
		} else if !u.sweepDone {
			// A settle cancels the RPC in flight; that is not a failure.
			u.err = err
			u.queue = nil
		}
		u.mu.Unlock()
		if err != nil {
			return
		}
		if resp.SweepDone {
			u.settle()
			return
		}
	}
}

// settle records that some response announced the sweep settled: every
// cell is done or parked, so anything still queued or in flight is a
// duplicate, and the coordinator may already be gone (-exit-when-done).
// The queue is dropped, an in-flight upload is abandoned, and the pass
// stops claiming cells.
func (u *uploader) settle() {
	u.mu.Lock()
	u.sweepDone = true
	u.queue = nil
	u.wake.Signal()
	u.mu.Unlock()
	u.cancel()
	u.claims.drop(u.claims.keys())
}

// flush ends the pass: it waits until everything queued has been
// acknowledged (or dropped) and returns the first upload error.
func (u *uploader) flush() error {
	u.mu.Lock()
	u.closed = true
	u.wake.Signal()
	u.mu.Unlock()
	<-u.done
	u.cancel()
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

// settled reports whether settle was called.
func (u *uploader) settled() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.sweepDone
}

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// Client talks to the coordinator. Required.
	Client *Client
	// RunPass executes one catalog pass under the given session: every
	// cell the session's Claims gate covers must be computed (or served
	// from the session's store) and delivered to the session's Sink.
	// ecfbench runs its catalog plan here; tests wire a fake
	// catalog. A returned error aborts the pass (remaining leases are
	// released); a *results.CellError releases the failed cell as
	// failed, which parks it, and the worker carries on. Required.
	RunPass func(ses *results.Session) error
	// Store optionally caches records locally (a worker's -cache-dir):
	// cells it already holds are served from it and still uploaded.
	Store *results.Store
	// BatchSize overrides the server's suggested claim size.
	BatchSize int
	// PollInterval is the idle wait when everything pending is leased
	// elsewhere. Zero: min(LeaseTTL/2, 2s).
	PollInterval time.Duration
	// Logf receives pass-level progress; nil discards.
	Logf func(format string, args ...any)
}

// WorkerStats summarizes a worker's run.
type WorkerStats struct {
	// Passes counts claim->compute->upload rounds.
	Passes int
	// Claimed, Uploaded, Duplicates, Lost, Surrendered count cells.
	Claimed     int
	Uploaded    int
	Duplicates  int
	Lost        int
	Surrendered int
}

// RunWorker drives the lease loop until the coordinator reports the
// sweep settled (or ctx is cancelled): claim a batch, heartbeat it in
// the background, compute through RunPass while the uploader sends what
// is finished, flush, release whatever was not acknowledged, repeat.
// Lease theft shrinks the claim set mid-pass; a failed cell is
// surrendered as a failure, and the loop continues.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	var stats WorkerStats
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	info, err := cfg.Client.Sweep(ctx)
	if err != nil {
		return stats, err
	}
	ttl := time.Duration(info.LeaseTTLMs) * time.Millisecond
	poll := cfg.PollInterval
	if poll <= 0 {
		poll = ttl / 2
		if poll > 2*time.Second {
			poll = 2 * time.Second
		}
		if poll <= 0 {
			poll = time.Second
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		resp, err := cfg.Client.claim(ctx, cfg.BatchSize)
		if err != nil {
			return stats, err
		}
		if len(resp.Cells) == 0 {
			if resp.SweepDone {
				return stats, nil
			}
			// Everything pending is leased elsewhere; wait for leases
			// to resolve (finish or expire) and try again.
			select {
			case <-time.After(poll):
			case <-ctx.Done():
				return stats, ctx.Err()
			}
			continue
		}
		stats.Passes++
		stats.Claimed += len(resp.Cells)
		claims := newClaimSet(resp.Cells)
		up := startUploader(ctx, cfg.Client, claims)

		// Heartbeat everything held — claimable or queued for upload —
		// at a third of the TTL until the pass has flushed. A failed
		// heartbeat is not fatal — the next one may land, and losing
		// the lease only costs duplicate work.
		hbCtx, stopHB := context.WithCancel(ctx)
		var hbWG sync.WaitGroup
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			interval := ttl / 3
			if interval <= 0 {
				interval = time.Second
			}
			for {
				select {
				case <-hbCtx.Done():
					return
				case <-time.After(interval):
				}
				held := claims.keys()
				if len(held) == 0 {
					continue
				}
				hb, err := cfg.Client.heartbeat(hbCtx, held)
				if err != nil {
					continue
				}
				if hb.SweepDone {
					up.settle()
					return
				}
				if len(hb.Lost) > 0 {
					claims.drop(hb.Lost)
					logf("lost %d leases (stolen); dropping them mid-pass", len(hb.Lost))
				}
			}
		}()

		ses := &results.Session{
			Store:  cfg.Store,
			Claims: claims.covers,
			Sink:   up,
		}
		passErr := cfg.RunPass(ses)
		// Whatever the pass managed to finish goes up before anything
		// is released: a queued cell is retired by its ack alone.
		flushErr := up.flush()
		stopHB()
		hbWG.Wait()

		stats.Uploaded += up.uploaded
		stats.Duplicates += up.duplicates
		if up.settled() {
			// Nothing is left to lease, release or report, and under
			// -exit-when-done nobody may be left to hear it.
			logf("pass %d: claimed %d, uploaded %d (%d duplicate); sweep settled", stats.Passes, len(resp.Cells), up.uploaded, up.duplicates)
			return stats, nil
		}

		// A release can settle the sweep too (the last cell parked as
		// failed); the loop then ends like any other settled pass.
		settled := false
		release := func(cells []results.Key, failed bool, reason string) {
			rr, rerr := cfg.Client.release(ctx, cells, failed, reason)
			if rerr != nil {
				logf("failed to release %d cells (their leases will expire): %v", len(cells), rerr)
			}
			settled = settled || rr.SweepDone
		}
		var failed *results.CellError
		if passErr != nil && errors.As(passErr, &failed) {
			// Surrender the failed cell; the coordinator parks it, since
			// any other worker would fail it the same way.
			stats.Surrendered++
			claims.drop([]results.Key{failed.Key})
			release([]results.Key{failed.Key}, true, failed.Error())
			passErr = nil
		}
		if passErr == nil {
			passErr = flushErr
		}
		// Return whatever was not acknowledged — aborted by an error,
		// its upload failed, or simply not reached before a failed cell
		// ended the pass. (Cells theft removed are no longer held.)
		if rest := claims.keys(); len(rest) > 0 {
			stats.Lost += len(rest)
			release(rest, false, "")
		}
		if passErr != nil {
			return stats, passErr
		}
		logf("pass %d: claimed %d, uploaded %d (%d duplicate)", stats.Passes, len(resp.Cells), up.uploaded, up.duplicates)
		if settled {
			return stats, nil
		}
	}
}
