package coord

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/results"
)

// cellRec is the test catalog's record type. Compute is deterministic,
// so every worker produces identical bytes for a cell — the contract
// idempotent ingest leans on.
type cellRec struct {
	Cell  int
	Value float64
}

func testSpec() results.Spec {
	return results.Spec{Experiment: "unit/sweep", Schema: 1, Scale: "s"}
}

func computeCellRec(i int) cellRec { return cellRec{Cell: i, Value: float64(i) * 2.5} }

// startServer builds a Server over the store in dir and serves it via
// httptest.
func startServer(t *testing.T, dir string, n int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	if cfg.Cells == nil {
		cfg.Cells = testCells(n)
	}
	if cfg.ScaleName == "" {
		cfg.ScaleName = "s"
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// fastClient builds a worker client with millisecond backoff so retry
// paths run in test time.
func fastClient(url, worker string) *Client {
	c := NewClient(url, worker)
	c.Backoff = Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 10}
	return c
}

// runCells runs cells 0..n-1 of the test spec on workers goroutines
// under ses on a batch of their own, discarding the records.
func runCells[T any](workers int, ses *results.Session, n int, compute func(int) T) error {
	b := results.NewBatch()
	for i := 0; i < n; i++ {
		results.AddCell(b, testSpec(), i, 0, compute, func(int, T) {})
	}
	return b.Run(ses, workers)
}

// passRunner adapts the test catalog to WorkerConfig.RunPass: one batch
// of the spec's cells under the worker's session.
func passRunner(n int, compute func(int) cellRec) func(*results.Session) error {
	return func(ses *results.Session) error { return runCells(2, ses, n, compute) }
}

// ingestOne uploads a lone record — a batch of one.
func ingestOne(c *Client, k results.Key, raw []byte) (duplicate bool, err error) {
	resp, err := c.ingestBatch(context.Background(), []IngestRecord{{Cell: k, Record: raw}})
	if err != nil {
		return false, err
	}
	return resp.Duplicate[0], nil
}

// storeHasAll fails unless the store holds exactly one well-formed
// record per cell.
func storeHasAll(t *testing.T, dir string, n int) {
	t.Helper()
	store, err := results.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testCells(n) {
		if !store.Has(k) {
			t.Fatalf("store misses cell %d after sweep", k.Cell)
		}
	}
	files := recordFileCount(t, dir)
	if files != n {
		t.Fatalf("store holds %d record files, want exactly %d (one per cell)", files, n)
	}
}

func TestSweepTwoWorkersComplete(t *testing.T) {
	const n = 24
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{LeaseTTL: 5 * time.Second, BatchSize: 5})

	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[w], errs[w] = RunWorker(context.Background(), WorkerConfig{
				Client:       fastClient(hs.URL, fmt.Sprintf("w%d", w)),
				RunPass:      passRunner(n, computeCellRec),
				PollInterval: 5 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	st := srv.Status()
	if !st.SweepDone || !st.Complete || st.Done != n || st.Failed != 0 {
		t.Fatalf("status = %+v", st)
	}
	if got := stats[0].Uploaded + stats[1].Uploaded; got < n {
		t.Fatalf("workers uploaded %d records, want >= %d", got, n)
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done channel not closed after completion")
	}
	storeHasAll(t, dir, n)
}

// flakyTransport injects the three transient failure modes a worker
// must ride out: requests dropped before they reach the server,
// responses dropped after the server already executed the request (the
// dangerous one — the retry replays a side effect), and 503s. Failures
// hit a fixed schedule so the test is deterministic.
type flakyTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	n    int

	dropped  int
	executed int
	busied   int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	switch {
	case n%11 == 3:
		f.mu.Lock()
		f.dropped++
		f.mu.Unlock()
		return nil, fmt.Errorf("injected: connection reset before send")
	case n%11 == 7:
		// Execute the request server-side, then lose the response: the
		// client retries an RPC that already landed.
		resp, err := f.base.RoundTrip(req)
		if err == nil {
			resp.Body.Close()
		}
		f.mu.Lock()
		f.executed++
		f.mu.Unlock()
		return nil, fmt.Errorf("injected: response dropped after execution")
	case n%11 == 9:
		f.mu.Lock()
		f.busied++
		f.mu.Unlock()
		rec := httptest.NewRecorder()
		rec.WriteHeader(http.StatusServiceUnavailable)
		return rec.Result(), nil
	}
	return f.base.RoundTrip(req)
}

func TestFlakyTransportConvergesOnOneRecordPerCell(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{LeaseTTL: 500 * time.Millisecond, BatchSize: 4})

	flaky := &flakyTransport{base: http.DefaultTransport}
	client := fastClient(hs.URL, "flaky-worker")
	client.HTTP = &http.Client{Transport: flaky, Timeout: 5 * time.Second}

	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client:       client,
		RunPass:      passRunner(n, computeCellRec),
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("worker over flaky transport: %v", err)
	}
	if flaky.dropped == 0 || flaky.executed == 0 || flaky.busied == 0 {
		t.Fatalf("fault injection never fired: %+v", flaky)
	}
	st := srv.Status()
	if !st.Complete || st.Done != n {
		t.Fatalf("status = %+v", st)
	}
	// Executed-then-dropped ingests were replayed by the retry loop;
	// idempotency must have absorbed them.
	if st.Ingested != n {
		t.Fatalf("ingested = %d, want %d", st.Ingested, n)
	}
	storeHasAll(t, dir, n)
	t.Logf("flaky run: %+v, server saw %d duplicates, injected %d/%d/%d faults",
		stats, st.Duplicates, flaky.dropped, flaky.executed, flaky.busied)
}

func TestDeadWorkerLeasesAreStolen(t *testing.T) {
	const n = 12
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{LeaseTTL: 150 * time.Millisecond, BatchSize: 6})

	// Worker A claims half the sweep and dies silently: no heartbeat,
	// no release — the SIGKILL case.
	dead := fastClient(hs.URL, "dead-worker")
	claimed, err := dead.claim(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(claimed.Cells) != 6 {
		t.Fatalf("dead worker claimed %d cells", len(claimed.Cells))
	}

	// Worker B sweeps everything; A's cells come back after the TTL.
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client:       fastClient(hs.URL, "live-worker"),
		RunPass:      passRunner(n, computeCellRec),
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Status()
	if !st.Complete || st.Done != n {
		t.Fatalf("status after steal = %+v", st)
	}
	if st.Stolen == 0 {
		t.Fatal("no leases were stolen despite the dead worker")
	}
	if stats.Uploaded != n {
		t.Fatalf("live worker uploaded %d, want %d", stats.Uploaded, n)
	}

	// The dead worker rises and uploads a cell it still thinks it
	// holds: an idempotent no-op, reported as a duplicate.
	k := claimed.Cells[0]
	raw, err := results.EncodeRecord(k, computeCellRec(k.Cell))
	if err != nil {
		t.Fatal(err)
	}
	dup, err := ingestOne(dead, k, raw)
	if err != nil {
		t.Fatal(err)
	}
	if !dup {
		t.Fatal("revived worker's upload was not flagged as a duplicate")
	}
	storeHasAll(t, dir, n)
}

func TestServerResumesFromStore(t *testing.T) {
	const n = 10
	dir := t.TempDir()

	// First life: half the sweep lands, then the coordinator "crashes"
	// (we simply drop it — the store is the durable state).
	srv1, hs1 := startServer(t, dir, n, Config{})
	c := fastClient(hs1.URL, "w")
	for _, k := range testCells(n)[:5] {
		raw, err := results.EncodeRecord(k, computeCellRec(k.Cell))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ingestOne(c, k, raw); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv1.Status(); st.Done != 5 {
		t.Fatalf("first life status = %+v, want 5 done", st)
	}
	hs1.Close()

	// Second life: the five ingested cells are done up front — no
	// recomputation — and only the remaining five are handed out.
	srv2, hs2 := startServer(t, dir, n, Config{})
	if st := srv2.Status(); st.Done != 5 || st.Pending != 5 {
		t.Fatalf("resumed status = %+v, want 5 done / 5 pending", st)
	}
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client:       fastClient(hs2.URL, "w2"),
		RunPass:      passRunner(n, computeCellRec),
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Claimed != 5 {
		t.Fatalf("resumed sweep claimed %d cells, want only the missing 5", stats.Claimed)
	}
	if st := srv2.Status(); !st.Complete {
		t.Fatalf("status = %+v", st)
	}

	// Third life: a fully swept store settles at construction.
	srv3, _ := startServer(t, dir, n, Config{})
	select {
	case <-srv3.Done():
	default:
		t.Fatal("fully-resumed server's Done channel not closed")
	}
}

// Two sweeps share a store without a word between them: keys are
// content-addressed, so a sweep's records are what its cells are, and
// a cell two sweeps share is one record with one content.
func TestSweepsShareAStore(t *testing.T) {
	const n, own = 4, 5
	dir := t.TempDir()

	// Sweep A completes.
	srvA, hsA := startServer(t, dir, n, Config{ScaleName: "quick"})
	if _, err := RunWorker(context.Background(), WorkerConfig{
		Client:       fastClient(hsA.URL, "a"),
		RunPass:      passRunner(n, computeCellRec),
		PollInterval: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if st := srvA.Status(); !st.Complete {
		t.Fatalf("sweep A status = %+v", st)
	}
	hsA.Close()

	// Sweep B, at another scale, lists two of A's cells and five of a
	// family of its own: it resumes the two and computes only its own.
	specB := results.Spec{Experiment: "unit/sweep", Schema: 1, Scale: "s-full"}
	cellsB := testCells(2)
	for i := 0; i < own; i++ {
		cellsB = append(cellsB, specB.Key(i))
	}
	srvB, hsB := startServer(t, dir, 0, Config{ScaleName: "full", Cells: cellsB})
	if st := srvB.Status(); st.Done != 2 || st.Pending != own {
		t.Fatalf("sweep B resumed as %+v, want 2 done / %d pending", st, own)
	}
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client: fastClient(hsB.URL, "b"),
		RunPass: func(ses *results.Session) error {
			b := results.NewBatch()
			for i := 0; i < n; i++ {
				results.AddCell(b, testSpec(), i, 0, computeCellRec, func(int, cellRec) {})
			}
			for i := 0; i < own; i++ {
				results.AddCell(b, specB, i, 0, computeCellRec, func(int, cellRec) {})
			}
			return b.Run(ses, 2)
		},
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Claimed != own {
		t.Fatalf("sweep B claimed %d cells, want only its own %d", stats.Claimed, own)
	}
	if st := srvB.Status(); !st.Complete {
		t.Fatalf("sweep B status = %+v", st)
	}
	hsB.Close()

	// A server rebuilt for A finds its sweep done.
	srvA2, _ := startServer(t, dir, n, Config{ScaleName: "quick"})
	select {
	case <-srvA2.Done():
	default:
		t.Fatalf("rebuilt sweep A did not settle at construction: %+v", srvA2.Status())
	}
	if files := recordFileCount(t, dir); files != n+own {
		t.Fatalf("store holds %d files, want the %d records of both sweeps and nothing else", files, n+own)
	}
}

// failingCompute is the test catalog's compute with cell bad failing as
// a cell does: a *results.CellError, the same on every worker.
func failingCompute(bad int, cause string, compute func(int) cellRec) func(int) cellRec {
	return func(i int) cellRec {
		if i == bad {
			panic(&results.CellError{Err: errors.New(cause)})
		}
		return compute(i)
	}
}

func TestFailedCellIsSurrenderedAndParked(t *testing.T) {
	const n, bad = 8, 3
	srv, hs := startServer(t, t.TempDir(), n, Config{LeaseTTL: 5 * time.Second, BatchSize: n})
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client:       fastClient(hs.URL, "w"),
		RunPass:      passRunner(n, failingCompute(bad, "over its event budget", computeCellRec)),
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("worker must survive a failed cell, got %v", err)
	}
	if stats.Surrendered != 1 {
		t.Fatalf("surrendered %d times, want 1: the first failure parks the cell", stats.Surrendered)
	}
	st := srv.Status()
	if !st.SweepDone || st.Complete {
		t.Fatalf("status = %+v, want settled but incomplete", st)
	}
	if st.Done != n-1 || st.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want %d/1", st.Done, st.Failed, n-1)
	}
	if len(st.FailedList) != 1 || st.FailedList[0].Key.Cell != bad {
		t.Fatalf("FailedList = %+v, want cell %d", st.FailedList, bad)
	}
	if why := st.FailedList[0].LastError; !strings.Contains(why, "over its event budget") || !strings.Contains(why, fmt.Sprintf("cell %d of", bad)) {
		t.Fatalf("failure reason %q does not name the cell and its cause", why)
	}

	// A late successful ingest un-poisons the parked cell and the sweep
	// completes.
	raw, err := results.EncodeRecord(testCells(n)[bad], computeCellRec(bad))
	if err != nil {
		t.Fatal(err)
	}
	c := fastClient(hs.URL, "healer")
	if _, err := ingestOne(c, testCells(n)[bad], raw); err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); !st.Complete || st.Failed != 0 {
		t.Fatalf("status after healing ingest = %+v", st)
	}
}

func TestIngestRejectsForeignAndMalformedRecords(t *testing.T) {
	const n = 3
	_, hs := startServer(t, t.TempDir(), n, Config{})
	c := fastClient(hs.URL, "w")

	// A cell outside the sweep: permanent rejection, no retries eating
	// the clock (409 is not retryable).
	foreign := results.Spec{Experiment: "other", Schema: 9, Scale: "x"}.Key(0)
	raw, err := results.EncodeRecord(foreign, cellRec{})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := ingestOne(c, foreign, raw); err == nil {
		t.Fatal("foreign ingest accepted")
	}
	if time.Since(start) > time.Second {
		t.Fatal("permanent rejection was retried")
	}

	// A malformed envelope for an in-sweep cell: rejected, cell stays
	// pending.
	k := testCells(n)[0]
	if _, err := ingestOne(c, k, []byte("{not json")); err == nil {
		t.Fatal("malformed ingest accepted")
	}
}

func TestClientRetriesUntilServerComesBack(t *testing.T) {
	// The first 4 exchanges fail at the transport; the worker's RPC
	// succeeds anyway within its attempt budget.
	var n int
	var mu sync.Mutex
	_, hs := startServer(t, t.TempDir(), 2, Config{})
	c := fastClient(hs.URL, "w")
	c.HTTP = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		mu.Lock()
		n++
		attempt := n
		mu.Unlock()
		if attempt <= 4 {
			return nil, fmt.Errorf("injected: coordinator restarting")
		}
		return http.DefaultTransport.RoundTrip(req)
	})}
	info, err := c.Sweep(context.Background())
	if err != nil {
		t.Fatalf("Sweep through outage: %v", err)
	}
	if info.TotalCells != 2 {
		t.Fatalf("info = %+v", info)
	}
	// A cancelled context stops the retry loop promptly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hs.Close()
	if _, err := c.Sweep(ctx); err == nil {
		t.Fatal("Sweep with cancelled context succeeded")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
