package coord

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// recordFileCount counts the record files under a store directory.
func recordFileCount(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzIngestHandler feeds the batch handler what the network may: an
// arbitrary body, and a well-formed batch whose second record is an
// arbitrary envelope. Whatever arrives, the handler must not panic, a
// refused request must leave no file behind, and an acknowledged one
// must carry exactly one result per record.
func FuzzIngestHandler(f *testing.F) {
	const n = 4
	cells := testCells(n)
	good := func(i int) []byte {
		raw, err := results.EncodeRecord(cells[i], computeCellRec(i))
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	batch := func(recs ...IngestRecord) []byte {
		body, err := json.Marshal(IngestRequest{Worker: "fuzz", Records: recs})
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	f.Add(batch(IngestRecord{Cell: cells[0], Record: good(0)}, IngestRecord{Cell: cells[2], Record: good(2)}), good(1))
	f.Add(batch(IngestRecord{Cell: cells[0], Record: good(0)}, IngestRecord{Cell: cells[0], Record: good(0)}), good(0))
	f.Add(batch(IngestRecord{Cell: cells[1], Record: good(3)}), []byte(`{"key":{},"data":1}`))
	f.Add(batch(), []byte(`{"data":{"x":1}}`))
	f.Add([]byte(`{"worker":"old","cell":{"experiment":"unit/sweep","cell":0,"schema":1,"scale":"s"},"record":{}}`), []byte(`null`))
	f.Add([]byte(`{"records":[{"cell":{"experiment":"other"},"record":{}}]}`), []byte(`{"key":{"experiment":"unit/sweep","cell":1,"schema":1,"scale":"s"}}`))
	f.Add([]byte(`{"records":[null]}`), []byte(`[]`))
	f.Add([]byte(`{not json`), []byte{0xff, 0xfe})

	f.Fuzz(func(t *testing.T, body, envelope []byte) {
		dir := t.TempDir()
		store, err := results.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(Config{Store: store, Cells: cells, ScaleName: "s"})
		if err != nil {
			t.Fatal(err)
		}
		post := func(body []byte) {
			before := recordFileCount(t, dir)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				if after := recordFileCount(t, dir); after != before {
					t.Fatalf("refused (%d) request wrote %d files: %s", rec.Code, after-before, body)
				}
				return
			}
			var req IngestRequest
			var resp IngestResponse
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("acknowledged a body that does not decode: %v", err)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("undecodable ack %q: %v", rec.Body, err)
			}
			if len(req.Records) == 0 || len(resp.Duplicate) != len(req.Records) {
				t.Fatalf("%d records acknowledged with %d results", len(req.Records), len(resp.Duplicate))
			}
			for _, r := range req.Records {
				if !store.Has(r.Cell) {
					t.Fatalf("acknowledged cell %d is not in the store", r.Cell.Cell)
				}
			}
		}
		post(body)
		if json.Valid(envelope) { // anything else cannot be framed as a batch
			post(batch(IngestRecord{Cell: cells[3], Record: good(3)}, IngestRecord{Cell: cells[1], Record: envelope}))
		}
	})
}

// FuzzLeaseRPCs runs the lease RPCs as the fuzzer's bytes decode them —
// claims, heartbeats and releases by fuzzer-chosen workers over
// fuzzer-chosen cells, arbitrary bodies posted to any of the three, and
// clock advances — against one server on a fake clock, and mirrors every
// lease the responses grant. After each operation: nothing panicked and
// nothing answered 5xx, every 200 decodes, no cell is granted while
// another lease on it is live, a heartbeat keeps only leases its worker
// holds, a failed release by the holder parks the cell at once (and
// nothing else parks one), the status counts add up to the work list,
// the leased count is the mirror's, and done never decreases.
func FuzzLeaseRPCs(f *testing.F) {
	const n, ttl = 6, 10 * time.Second
	cells := testCells(n)
	f.Add([]byte{0, 0, 2, 0, 1, 2, 3, 120, 0, 1, 4, 1, 0, 2, 2, 3, 2, 1, 1, 1, 4})
	f.Add([]byte{0, 0, 0, 3, 101, 0, 1, 0, 1, 0, 3, 2, 3, 4, 5, 2, 1, 1, 2, 4, 5})
	f.Add([]byte{0, 2, 3, 2, 2, 1, 2, 2, 3, 4, 2, 2, 1, 2, 2, 3, 4, 0, 1, 3})
	f.Add(append([]byte{4, 0, 23}, `{"worker":"w1","max":3}`...))
	f.Add(append([]byte{0, 1, 1, 4, 1, 94}, `{"worker":"w1","cells":[{"experiment":"unit/sweep","cell":2,"schema":1,"scale":"s"}]}`...))
	f.Add(append([]byte{4, 2, 9}, `{"cells":`...))

	f.Fuzz(func(t *testing.T, ops []byte) {
		store, err := results.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Two cells are done before the sweep starts, so a lost record
		// would show as done decreasing.
		for _, k := range cells[:2] {
			if err := store.Put(k, computeCellRec(k.Cell)); err != nil {
				t.Fatal(err)
			}
		}
		now := time.Unix(1e9, 0)
		srv, err := NewServer(Config{Store: store, Cells: cells, ScaleName: "s", LeaseTTL: ttl,
			Now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		claimable := map[results.Key]bool{}
		for _, k := range cells[2:] {
			claimable[k] = true
		}
		// parked mirrors the cells failed releases parked.
		parked := map[results.Key]bool{}

		// leases mirrors what the responses granted: holder and expiry.
		type lease struct {
			worker string
			expiry time.Time
		}
		leases := map[results.Key]lease{}
		live := func(k results.Key) (lease, bool) {
			l, ok := leases[k]
			return l, ok && !now.After(l.expiry)
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		worker := func() string { return []string{"w0", "w1", "w2", ""}[next()%4] }
		keys := func() []results.Key {
			out := make([]results.Key, next()%4)
			for i := range out {
				if j := next() % (n + 1); j < n {
					out[i] = cells[j]
				} else {
					out[i] = results.Spec{Experiment: "other", Schema: 1, Scale: "s"}.Key(j)
				}
			}
			return out
		}
		post := func(path string, body []byte) []byte {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("%s answered %d to %q: %s", path, rec.Code, body, rec.Body)
			}
			if rec.Code != http.StatusOK {
				return nil
			}
			return rec.Body.Bytes()
		}
		mustJSON := func(v any) []byte {
			body, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		decode := func(path string, raw []byte, v any) {
			if err := json.Unmarshal(raw, v); err != nil {
				t.Fatalf("%s answered 200 with %q: %v", path, raw, err)
			}
		}

		// claim, heartbeat and release check a 200 answer against the
		// mirror and update it; req is the request body as sent.
		claim := func(req []byte) {
			resp := post("/v1/claim", req)
			if resp == nil {
				return
			}
			var r ClaimRequest
			var got ClaimResponse
			decode("/v1/claim", resp, &got)
			json.Unmarshal(req, &r) // the server decoded it the same way
			for _, k := range got.Cells {
				if !claimable[k] {
					t.Fatalf("claim granted %+v, which is not a pending cell of the sweep", k)
				}
				if l, held := live(k); held {
					t.Fatalf("claim granted cell %d to %q while %q holds it until %v (now %v)", k.Cell, r.Worker, l.worker, l.expiry, now)
				}
				leases[k] = lease{r.Worker, now.Add(ttl)}
			}
		}
		heartbeat := func(req []byte) {
			resp := post("/v1/heartbeat", req)
			if resp == nil {
				return
			}
			var r HeartbeatRequest
			var got HeartbeatResponse
			decode("/v1/heartbeat", resp, &got)
			json.Unmarshal(req, &r)
			lost := map[results.Key]bool{}
			for _, k := range got.Lost {
				lost[k] = true
			}
			for _, k := range r.Cells {
				if lost[k] {
					continue
				}
				if l, held := live(k); !held || l.worker != r.Worker {
					t.Fatalf("heartbeat by %q kept cell %+v, which it does not hold", r.Worker, k)
				}
				leases[k] = lease{r.Worker, now.Add(ttl)}
			}
		}
		release := func(req []byte) {
			resp := post("/v1/release", req)
			if resp == nil {
				return
			}
			var r ReleaseRequest
			decode("/v1/release", resp, &ReleaseResponse{})
			json.Unmarshal(req, &r)
			for _, k := range r.Cells {
				if l, held := live(k); held && l.worker == r.Worker {
					delete(leases, k)
					if r.Failed {
						parked[k] = true
						claimable[k] = false
					}
				}
			}
		}

		done := 0
		for len(ops) > 0 {
			switch next() % 5 {
			case 0:
				claim(mustJSON(ClaimRequest{Worker: worker(), Max: next() % 4}))
			case 1:
				heartbeat(mustJSON(HeartbeatRequest{Worker: worker(), Cells: keys()}))
			case 2:
				w, failed := worker(), next()%2 == 1
				release(mustJSON(ReleaseRequest{Worker: w, Cells: keys(), Failed: failed, Reason: "fuzz"}))
			case 3:
				now = now.Add(time.Duration(next()) * 100 * time.Millisecond)
			case 4:
				rpc := []func([]byte){claim, heartbeat, release}[next()%3]
				body := ops[:min(next(), len(ops))]
				ops = ops[len(body):]
				rpc(body)
			}

			st := srv.Status()
			if st.Total != n || st.Done+st.Leased+st.Pending+st.Failed != n {
				t.Fatalf("status counts %d done + %d leased + %d pending + %d failed, want %d in all", st.Done, st.Leased, st.Pending, st.Failed, n)
			}
			if st.Done < done {
				t.Fatalf("done fell from %d to %d", done, st.Done)
			}
			done = st.Done
			held := 0
			for k := range leases {
				if _, ok := live(k); ok {
					held++
				}
			}
			if st.Leased != held {
				t.Fatalf("status says %d cells leased, the responses granted %d live leases", st.Leased, held)
			}
			if st.Failed != len(parked) || len(st.FailedList) != len(parked) {
				t.Fatalf("status parks %d cells (%d listed), the holders' failed releases parked %d", st.Failed, len(st.FailedList), len(parked))
			}
			for _, fc := range st.FailedList {
				if !parked[fc.Key] {
					t.Fatalf("cell %+v is parked, but no failed release by its holder parked it", fc.Key)
				}
			}
		}
	})
}
