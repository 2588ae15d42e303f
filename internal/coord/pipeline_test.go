package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/results"
)

// tapTransport lets a test stand between the worker and the
// coordinator: before sees each request (with its body) and may block
// or answer it itself; after sees each response body that came back.
type tapTransport struct {
	before func(path string, body []byte) *http.Response
	after  func(path string, body []byte)
}

func (tt tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	if tt.before != nil {
		if resp := tt.before(req.URL.Path, body); resp != nil {
			return resp, nil
		}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || tt.after == nil {
		return resp, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	tt.after(req.URL.Path, got)
	resp.Body = io.NopCloser(bytes.NewReader(got))
	return resp, nil
}

// refuse is a canned non-retryable rejection.
func refuse(msg string) *http.Response {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusBadRequest, errorBody{Error: msg})
	return rec.Result()
}

func tappedClient(url, worker string, tt tapTransport) *Client {
	c := fastClient(url, worker)
	c.HTTP = &http.Client{Transport: tt, Timeout: 10 * time.Second}
	return c
}

// countingCompute counts how often each cell is computed.
func countingCompute(n int) (func(int) cellRec, func() []int64) {
	counts := make([]atomic.Int64, n)
	return func(i int) cellRec {
			counts[i].Add(1)
			return computeCellRec(i)
		}, func() []int64 {
			out := make([]int64, n)
			for i := range counts {
				out[i] = counts[i].Load()
			}
			return out
		}
}

// A key two specs of one pass share is computed and uploaded once even
// while its first upload is still unacknowledged: a queued cell is not
// claimable.
func TestSharedKeyInOnePassUploadsOnce(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{LeaseTTL: 5 * time.Second, BatchSize: n})
	compute, counts := countingCompute(n)
	secondDone := make(chan struct{})
	client := tappedClient(hs.URL, "w", tapTransport{before: func(path string, _ []byte) *http.Response {
		if path == "/v1/ingest" {
			<-secondDone // no ack until the catalog has presented every key twice
		}
		return nil
	}})
	once := passRunner(n, compute)
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client: client,
		RunPass: func(ses *results.Session) error {
			defer close(secondDone)
			if err := once(ses); err != nil {
				return err
			}
			return once(ses)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts() {
		if c != 1 {
			t.Fatalf("cell %d computed %d times, want once", i, c)
		}
	}
	st := srv.Status()
	if !st.Complete || st.Ingested != n || st.Duplicates != 0 {
		t.Fatalf("status = %+v, want %d ingested and no duplicates", st, n)
	}
	if stats.Passes != 1 || stats.Uploaded != n || stats.Duplicates != 0 {
		t.Fatalf("stats = %+v, want one pass uploading %d cells", stats, n)
	}
	storeHasAll(t, dir, n)
}

// Queued cells are still held: they are heartbeated while their upload
// is outstanding, and when the upload fails they are released, not
// retired.
func TestQueuedCellsAreHeartbeatedAndReleasedOnIngestFailure(t *testing.T) {
	const n = 5
	srv, hs := startServer(t, t.TempDir(), n, Config{LeaseTTL: 600 * time.Millisecond, BatchSize: n})
	var allQueued atomic.Bool
	var sawOnce sync.Once
	sawAll := make(chan struct{})
	client := tappedClient(hs.URL, "w", tapTransport{before: func(path string, body []byte) *http.Response {
		switch path {
		case "/v1/heartbeat":
			var req HeartbeatRequest
			if json.Unmarshal(body, &req) == nil && allQueued.Load() && len(req.Cells) == n {
				sawOnce.Do(func() { close(sawAll) })
			}
		case "/v1/ingest":
			<-sawAll
			return refuse("injected: disk full")
		}
		return nil
	}})
	run := passRunner(n, computeCellRec)
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client: client,
		RunPass: func(ses *results.Session) error {
			err := run(ses)
			allQueued.Store(true)
			<-sawAll
			return err
		},
	})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("worker error = %v, want the injected ingest failure", err)
	}
	if stats.Uploaded != 0 || stats.Lost != n {
		t.Fatalf("stats = %+v, want nothing uploaded and %d cells returned", stats, n)
	}
	st := srv.Status()
	if st.Done != 0 || st.Leased != 0 || st.Pending != n {
		t.Fatalf("status = %+v, want every cell released back to pending", st)
	}
}

// A pass cut short by a failed cell still uploads what it had finished
// and gives up only the failed cell, which is parked at once.
func TestFailedPassFlushesFinishedCells(t *testing.T) {
	const n, bad = 6, 2
	srv, hs := startServer(t, t.TempDir(), n, Config{LeaseTTL: 5 * time.Second, BatchSize: n})
	compute, counts := countingCompute(n)
	passOver := make(chan struct{})
	var passOnce sync.Once
	client := tappedClient(hs.URL, "w", tapTransport{before: func(path string, _ []byte) *http.Response {
		if path == "/v1/ingest" {
			<-passOver // finished cells are still queued when the cell fails
		}
		return nil
	}})
	run := passRunner(n, failingCompute(bad, "never completed", compute))
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client: client,
		RunPass: func(ses *results.Session) error {
			defer passOnce.Do(func() { close(passOver) })
			return run(ses)
		},
		PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Surrendered != 1 {
		t.Fatalf("stats = %+v, want exactly the failed cell surrendered", stats)
	}
	for i, c := range counts() {
		if i != bad && c != 1 {
			t.Fatalf("cell %d computed %d times: a finished cell was released instead of flushed", i, c)
		}
	}
	st := srv.Status()
	if st.Done != n-1 || st.Failed != 1 || st.Duplicates != 0 || st.FailedList[0].Key.Cell != bad ||
		!strings.Contains(st.FailedList[0].LastError, "never completed") {
		t.Fatalf("status = %+v, want %d done and cell %d parked naming its cause", st, n-1, bad)
	}
}

func TestConcurrentPutsUploadEveryCellOnce(t *testing.T) {
	const n = 160
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{LeaseTTL: 5 * time.Second, BatchSize: 40})
	const workers = 8
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client: fastClient(hs.URL, "w"),
		RunPass: func(ses *results.Session) error {
			return runCells(workers, ses, n, computeCellRec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Status()
	if !st.Complete || st.Ingested != n || st.Duplicates != 0 || stats.Uploaded != n {
		t.Fatalf("status = %+v, stats = %+v", st, stats)
	}
	storeHasAll(t, dir, n)
}

// Once a response has announced the sweep settled, the coordinator may
// be gone (-exit-when-done): what is still queued is duplicate by
// definition and must be dropped, not retried against a dead address.
func TestWorkerExitsCleanlyWhenCoordinatorLeavesAfterSettling(t *testing.T) {
	const n = 6
	srv, hs := startServer(t, t.TempDir(), n, Config{LeaseTTL: 5 * time.Second, BatchSize: n})
	firstSent := make(chan struct{})
	thiefDone := make(chan struct{})
	var firstOnce sync.Once
	var afterSettle atomic.Int64
	var settled atomic.Bool
	client := tappedClient(hs.URL, "late", tapTransport{
		before: func(path string, _ []byte) *http.Response {
			if settled.Load() {
				afterSettle.Add(1)
			}
			if path == "/v1/ingest" {
				firstOnce.Do(func() { close(firstSent) })
				<-thiefDone
			}
			return nil
		},
		after: func(path string, body []byte) {
			var resp IngestResponse
			if path == "/v1/ingest" && json.Unmarshal(body, &resp) == nil && resp.SweepDone {
				// The settling ack is the last thing this coordinator says.
				settled.Store(true)
				hs.CloseClientConnections()
				hs.Close()
			}
		},
	})
	const workers = 1
	start := time.Now()
	stats, err := RunWorker(context.Background(), WorkerConfig{
		Client: client,
		RunPass: func(ses *results.Session) error {
			err := runCells(workers, ses, n, func(i int) cellRec {
				if i > 0 {
					<-firstSent // cell 0 travels alone; the rest queue up behind it
				}
				return computeCellRec(i)
			})
			// Another worker finishes the whole sweep while ours waits.
			thief := fastClient(hs.URL, "thief")
			for _, k := range testCells(n) {
				raw, eerr := results.EncodeRecord(k, computeCellRec(k.Cell))
				if eerr != nil {
					return eerr
				}
				if _, ierr := ingestOne(thief, k, raw); ierr != nil {
					return ierr
				}
			}
			close(thiefDone)
			return err
		},
	})
	if err != nil {
		t.Fatalf("worker on a settled sweep: %v", err)
	}
	if got := afterSettle.Load(); got != 0 {
		t.Fatalf("worker sent %d requests after the settling ack", got)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("worker took %v to notice the sweep had settled", time.Since(start))
	}
	if stats.Uploaded != 1 || stats.Duplicates != 1 {
		t.Fatalf("stats = %+v, want the one acknowledged (duplicate) upload", stats)
	}
	if st := srv.Status(); !st.Complete {
		t.Fatalf("status = %+v", st)
	}
}

// padRec is a record with a payload large enough to matter.
type padRec struct {
	Cell int
	Pad  string
}

func TestUploaderSplitsBatchesAtTheByteCap(t *testing.T) {
	const n = 4
	const recBytes = 3 << 20 // two fit under ingestBatchBytes, three do not
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{LeaseTTL: 5 * time.Second, BatchSize: n})
	passOver := make(chan struct{})
	var mu sync.Mutex
	var sizes, counts []int
	client := tappedClient(hs.URL, "w", tapTransport{before: func(path string, body []byte) *http.Response {
		if path == "/v1/ingest" {
			var req IngestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Errorf("undecodable ingest body: %v", err)
			}
			mu.Lock()
			sizes, counts = append(sizes, len(body)), append(counts, len(req.Records))
			mu.Unlock()
			<-passOver // everything else is queued by the time this one is acknowledged
		}
		return nil
	}})
	pad := strings.Repeat("x", recBytes)
	const workers = 1
	_, err := RunWorker(context.Background(), WorkerConfig{
		Client: client,
		RunPass: func(ses *results.Session) error {
			defer close(passOver)
			return runCells(workers, ses, n, func(i int) padRec { return padRec{Cell: i, Pad: pad} })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Status(); !st.Complete || st.Ingested != n {
		t.Fatalf("status = %+v", st)
	}
	most := 0
	for i, size := range sizes {
		if size > ingestBatchBytes+4096 {
			t.Fatalf("ingest request %d is %d bytes, over the %d-byte cap", i, size, ingestBatchBytes)
		}
		if counts[i] > most {
			most = counts[i]
		}
	}
	if len(sizes) < 3 || most != 2 {
		t.Fatalf("requests carried %v records: want the queue split at the cap into batches of at most 2", counts)
	}
	storeHasAll(t, dir, n)
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestOversizeBodyIsRefusedNotTruncated(t *testing.T) {
	srv, _ := startServer(t, t.TempDir(), 2, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", io.LimitReader(zeros{}, maxBodyBytes+1))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body answered %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), fmt.Sprint(maxBodyBytes)) {
		t.Fatalf("413 message %q does not state the limit", rec.Body)
	}
}

func TestIngestBatchAcksPerRecord(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	srv, hs := startServer(t, dir, n, Config{})
	c := fastClient(hs.URL, "w")
	var batch []IngestRecord
	for _, k := range testCells(n) {
		raw, err := results.EncodeRecord(k, computeCellRec(k.Cell))
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, IngestRecord{Cell: k, Record: raw})
	}
	// Cells 0 and 1, then a batch that replays 1, adds 2 and 3, and
	// offers 3 twice.
	resp, err := c.ingestBatch(context.Background(), batch[:2])
	if err != nil || resp.Duplicate[0] || resp.Duplicate[1] || resp.SweepDone {
		t.Fatalf("first batch = %+v, %v", resp, err)
	}
	resp, err = c.ingestBatch(context.Background(), []IngestRecord{batch[1], batch[2], batch[3], batch[3]})
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, false, true}; fmt.Sprint(resp.Duplicate) != fmt.Sprint(want) || !resp.SweepDone {
		t.Fatalf("second batch = %+v, want duplicates %v and sweep_done", resp, want)
	}
	if st := srv.Status(); !st.Complete || st.Ingested != n || st.Duplicates != 2 {
		t.Fatalf("status = %+v", st)
	}
	storeHasAll(t, dir, n)

	// One foreign or malformed record refuses the whole batch; an empty
	// batch (what a single-record client's body decodes to) is refused
	// rather than acknowledged.
	srv2, hs2 := startServer(t, t.TempDir(), n, Config{})
	c2 := fastClient(hs2.URL, "w")
	bad := []IngestRecord{batch[0], {Cell: batch[1].Cell, Record: []byte(`{"key":{},"data":1}`)}}
	if _, err := c2.ingestBatch(context.Background(), bad); err == nil {
		t.Fatal("a batch with a malformed record was acknowledged")
	}
	if _, err := c2.ingestBatch(context.Background(), nil); err == nil {
		t.Fatal("an empty batch was acknowledged")
	}
	if st := srv2.Status(); st.Done != 0 || st.Ingested != 0 {
		t.Fatalf("refused batches marked cells done: %+v", st)
	}
}
