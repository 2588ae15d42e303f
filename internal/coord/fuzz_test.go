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
		if base := filepath.Base(path); strings.HasSuffix(base, ".json") && base != "coord-state.json" {
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
		srv, err := NewServer(Config{Store: store, Cells: cells, ScaleName: "s", StatePath: "-"})
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
