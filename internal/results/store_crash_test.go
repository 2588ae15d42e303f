package results

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// recordFiles lists the record files under dir (excluding temp files and
// directories), sorted by path.
func recordFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return nil
		}
		files = append(files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestCrashMidWriteScenarios simulates the debris each crash window of
// the atomic write discipline can leave behind, and verifies the store
// reads clean through every one of them: Get and Has report a miss (or
// the intact old record) and a rerun heals the store by recomputation.
func TestCrashMidWriteScenarios(t *testing.T) {
	k := spec().Key(0)
	v := rec{Cell: 0, Label: "cell", Value: 0}

	scenarios := []struct {
		name string
		// corrupt sabotages the store dir after a successful Put.
		corrupt func(t *testing.T, path string)
		// wantHit: the record should still be served after sabotage.
		wantHit bool
		// wantHas: Has, which checks the envelope and key but not the
		// payload, should still report the record.
		wantHas bool
	}{
		{
			// Crash after rename of a partial temp file (or a torn
			// write): the final name holds truncated JSON.
			name: "truncated record under final name",
			corrupt: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// Crash between CreateTemp and rename: an orphaned temp
			// file sits next to an intact record. The record must still
			// be served; the orphan must not be mistaken for a record.
			name: "orphaned temp file next to intact record",
			corrupt: func(t *testing.T, path string) {
				orphan := filepath.Join(filepath.Dir(path), ".tmp-orphan1")
				if err := os.WriteFile(orphan, []byte(`{"key":`), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantHit: true,
			wantHas: true,
		},
		{
			// A record file holding a well-formed envelope for a
			// different cell (e.g. debris from a botched manual copy):
			// the key check must reject it.
			name: "record carries another cell's envelope",
			corrupt: func(t *testing.T, path string) {
				other, err := EncodeRecord(spec().Key(7), rec{Cell: 7, Label: "cell", Value: 8.75})
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, other, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// Crash at the instant of file creation: zero bytes under
			// the final name.
			name: "empty record file",
			corrupt: func(t *testing.T, path string) {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// Bytes after the envelope (two writers' output run
			// together): the file as a whole is not one JSON value.
			name: "trailing garbage after the envelope",
			corrupt: func(t *testing.T, path string) {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(raw, `{"key":1}`...), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// A payload that does not decode into the record type: the
			// fields that did decode must not leak into the caller's
			// value.
			name: "payload of another type",
			corrupt: func(t *testing.T, path string) {
				rewritePayload(t, path, `"data":{"Label":"stale","Cell":"forty-one"}`)
			},
			wantHas: true,
		},
		{
			// A record without a payload is no record: Has agrees with
			// Get and the ingest gate.
			name: "null payload",
			corrupt: func(t *testing.T, path string) {
				rewritePayload(t, path, `"data":null`)
			},
		},
		{
			name: "absent payload",
			corrupt: func(t *testing.T, path string) {
				rewritePayload(t, path, `"nodata":0`)
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			if err := st.Put(k, v); err != nil {
				t.Fatal(err)
			}
			files := recordFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("record files after Put = %d, want 1", len(files))
			}
			sc.corrupt(t, files[0])

			var got rec
			if hit := st.Get(k, &got); hit != sc.wantHit {
				t.Fatalf("Get after %s = %v, want %v", sc.name, hit, sc.wantHit)
			}
			if !sc.wantHit && got != (rec{}) {
				t.Fatalf("Get missed after %s but wrote %+v into its target", sc.name, got)
			}
			if has := st.Has(k); has != sc.wantHas {
				t.Fatalf("Has after %s = %v, want %v", sc.name, has, sc.wantHas)
			}

			// A session run over the sabotaged store recomputes exactly
			// the damaged cell and heals it.
			var computes atomic.Int64
			s := &Session{Store: openStore(t, dir)}
			out := make([]rec, 1)
			if err := runSpec(1, s, spec(), 1, computeRec(&computes), collectInto(out)); err != nil {
				t.Fatal(err)
			}
			wantComputes := int64(1)
			if sc.wantHit {
				wantComputes = 0
			}
			if computes.Load() != wantComputes {
				t.Fatalf("recompute count = %d, want %d", computes.Load(), wantComputes)
			}
			if out[0] != v {
				t.Fatalf("healed record = %+v, want %+v", out[0], v)
			}
			if !st.Has(k) {
				t.Fatal("store not healed: Has still false after rerun")
			}
		})
	}
}

// TestRecordPresenceAgreesAcrossReaders writes one file under a key and
// asks every reader of a store whether it holds a record there. Has,
// the ingest gate, Audit and Prune must give one answer; Get gives the
// same one, except that only Get knows the record type and so alone
// rejects a payload of another type.
func TestRecordPresenceAgreesAcrossReaders(t *testing.T) {
	k := spec().Key(3)
	good, err := EncodeRecord(k, rec{Cell: 3, Label: "c3", Value: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	key, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	withKey := func(rest string) []byte { return []byte(`{"key":` + string(key) + rest + `}`) }
	for _, tc := range []struct {
		name    string
		raw     []byte
		present bool // for Has, the ingest gate, Audit and Prune
		get     bool
	}{
		{"record", good, true, true},
		{"null payload", withKey(`,"data":null`), false, false},
		{"absent payload", withKey(``), false, false},
		{"payload of another type", withKey(`,"data":"text"`), true, false},
		{"no key", []byte(`{"data":{"Cell":3}}`), false, false},
		{"truncated", good[:len(good)/2], false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			path := st.path(k)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var v rec
			if got := st.Get(k, &v); got != tc.get {
				t.Errorf("Get = %v, want %v", got, tc.get)
			}
			if got := st.Has(k); got != tc.present {
				t.Errorf("Has = %v, want %v", got, tc.present)
			}
			if _, err := st.IngestBatch([]Record{{Key: k, Raw: tc.raw}}); (err == nil) != tc.present {
				t.Errorf("ingest gate error = %v, want accepted = %v", err, tc.present)
			}
			records, unreadable := 0, 1
			if tc.present {
				records, unreadable = 1, 0
			}
			audit, err := st.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if audit.Records != records || audit.Unreadable != unreadable {
				t.Errorf("Audit counts %d records, %d unreadable; want %d, %d", audit.Records, audit.Unreadable, records, unreadable)
			}
			pr, err := st.Prune(PruneOptions{Keep: func(Spec) bool { return false }})
			if err != nil {
				t.Fatal(err)
			}
			if pr.DeletedRecords() != records || pr.Unreadable != unreadable {
				t.Errorf("Prune deleted %d records, left %d unreadable; want %d, %d", pr.DeletedRecords(), pr.Unreadable, records, unreadable)
			}
			if _, err := os.Stat(path); os.IsNotExist(err) == !tc.present {
				t.Errorf("after Prune the file exists = %v, want %v", !os.IsNotExist(err), !tc.present)
			}
		})
	}
}

// rewritePayload replaces the payload member of the record at path,
// keeping its key.
func rewritePayload(t *testing.T, path, member string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte(`"data":`))
	if i < 0 {
		t.Fatalf("no payload member in %s", raw)
	}
	if err := os.WriteFile(path, append(raw[:i:i], member+"}"...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicWriteFileReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := atomicWriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("version-two")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil || string(raw) != "version-two" {
		t.Fatalf("content = %q, %v; want \"version-two\"", raw, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries after two writes, want 1 (no temp debris)", len(entries))
	}
}

func TestIngestIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	k := spec().Key(3)
	raw, err := EncodeRecord(k, rec{Cell: 3, Label: "cell", Value: 3.75})
	if err != nil {
		t.Fatal(err)
	}

	added, err := ingestOne(st, k, raw)
	if err != nil || !added {
		t.Fatalf("first ingest = %v, %v; want added", added, err)
	}
	// A replayed upload (retried RPC, stolen-then-revived worker) is a
	// no-op: not added, nothing rewritten.
	before := recordFiles(t, dir)
	added, err = ingestOne(st, k, raw)
	if err != nil || added {
		t.Fatalf("duplicate ingest = %v, %v; want no-op", added, err)
	}
	after := recordFiles(t, dir)
	if len(before) != 1 || len(after) != 1 {
		t.Fatalf("record files = %d then %d, want exactly 1", len(before), len(after))
	}
	var got rec
	if !st.Get(k, &got) || got.Cell != 3 {
		t.Fatalf("Get after duplicate ingest = %+v", got)
	}
}

func TestIngestRejectsBadEnvelopes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	k := spec().Key(0)
	good, err := EncodeRecord(k, rec{Cell: 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"garbage bytes":    []byte("{not json"),
		"empty body":       nil,
		"no key":           []byte(`{"data":{"x":1}}`),
		"no payload":       []byte(`{"key":{"experiment":"unit/alpha","cell":0,"schema":1,"scale":"s1"}}`),
		"mismatched cell":  mustEncode(t, spec().Key(9), rec{Cell: 9}),
		"mismatched exper": mustEncode(t, Key{Experiment: "other", Cell: 0, Schema: 1, Scale: "s1"}, rec{}),
	}
	for name, raw := range cases {
		if added, err := ingestOne(st, k, raw); err == nil {
			t.Fatalf("%s: ingest succeeded (added=%v), want rejection", name, added)
		}
		// One bad record rejects its whole batch before anything lands.
		if _, err := st.IngestBatch([]Record{{Key: spec().Key(1), Raw: mustEncode(t, spec().Key(1), rec{Cell: 1})}, {Key: k, Raw: raw}}); err == nil {
			t.Fatalf("%s: a batch carrying the bad record was accepted", name)
		}
	}
	if st.Has(k) || st.Has(spec().Key(1)) || len(recordFiles(t, dir)) != 0 {
		t.Fatal("rejected ingests left a record behind")
	}
	if added, err := ingestOne(st, k, good); err != nil || !added {
		t.Fatalf("valid ingest after rejections = %v, %v", added, err)
	}
}

// ingestOne ingests a lone record — a batch of one.
func ingestOne(st *Store, k Key, raw []byte) (added bool, err error) {
	got, err := st.IngestBatch([]Record{{Key: k, Raw: raw}})
	if err != nil {
		return false, err
	}
	return got[0], nil
}

func mustEncode(t *testing.T, k Key, v any) []byte {
	t.Helper()
	raw, err := EncodeRecord(k, v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestEncodeRecordRoundTripsThroughDecodeKey(t *testing.T) {
	k := spec().Key(5)
	raw := mustEncode(t, k, rec{Cell: 5, Label: "cell", Value: 6.25})
	got, err := decodeRecordKey(raw)
	if err != nil || got != k {
		t.Fatalf("decodeRecordKey = %+v, %v; want %+v", got, err, k)
	}
	// The envelope is exactly what Put writes: ingesting it then reading
	// through Get yields the original value.
	st := openStore(t, t.TempDir())
	if _, err := ingestOne(st, k, raw); err != nil {
		t.Fatal(err)
	}
	var v rec
	if !st.Get(k, &v) || v.Value != 6.25 {
		t.Fatalf("Get after ingest = %+v", v)
	}
	if !json.Valid(raw) {
		t.Fatal("envelope is not valid JSON")
	}
}

// batchOf encodes cells [lo, hi) of the family named exp.
func batchOf(t *testing.T, exp string, lo, hi int) []Record {
	t.Helper()
	var out []Record
	for i := lo; i < hi; i++ {
		k := Spec{Experiment: exp, Schema: 1, Scale: "s1"}.Key(i)
		out = append(out, Record{Key: k, Raw: mustEncode(t, k, rec{Cell: i, Label: exp, Value: float64(i)})})
	}
	return out
}

func TestIngestBatchCommitsOnceAndDedupes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	batch := append(batchOf(t, "unit/alpha", 0, 3), batchOf(t, "unit/beta", 0, 2)...)
	batch = append(batch, batch[1]) // the same record offered twice in one batch
	added, err := st.IngestBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, true, true, false}
	for i := range want {
		if added[i] != want[i] {
			t.Fatalf("added = %v, want %v", added, want)
		}
	}
	if n := len(recordFiles(t, dir)); n != 5 {
		t.Fatalf("store holds %d record files, want 5", n)
	}
	// A replay of the whole batch (the retried RPC whose first attempt
	// landed) writes nothing.
	added, err = st.IngestBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range added {
		if a {
			t.Fatalf("replayed record %d was added again", i)
		}
	}
	if n := len(recordFiles(t, dir)); n != 5 {
		t.Fatalf("store holds %d record files after the replay, want 5", n)
	}
}

// TestGroupCommitCrashWindow kills the group commit after each possible
// number of renames and before the directory fsync — the window the
// batch widens from one record to many. The crash is a write that
// cannot proceed: a regular file sits where record k's directory
// belongs, so IngestBatch stops there with records 0..k-1 renamed,
// nothing fsynced at directory level, and (returning an error) nothing
// acknowledged. Whatever a restarted process then finds must be whole:
// every record of the earlier, acknowledged batch readable, no
// half-record under any final name, and a retry converging on exactly
// one file per record.
func TestGroupCommitCrashWindow(t *testing.T) {
	const n = 4
	for crashAt := 0; crashAt < n; crashAt++ {
		dir := t.TempDir()
		st := openStore(t, dir)
		acked := batchOf(t, "unit/acked", 0, 3)
		if _, err := st.IngestBatch(acked); err != nil {
			t.Fatal(err)
		}

		// The doomed batch: one family per record, so that record
		// crashAt is the first to need the obstructed directory.
		var doomed []Record
		for i := 0; i < n; i++ {
			doomed = append(doomed, batchOf(t, "unit/doomed"+string(rune('a'+i)), i, i+1)...)
		}
		obstacle := filepath.Dir(st.path(doomed[crashAt].Key))
		if err := os.WriteFile(obstacle, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.IngestBatch(doomed); err == nil {
			t.Fatalf("crash at %d: the obstructed batch was acknowledged", crashAt)
		}

		// Restart: a fresh handle over the same directory.
		st = openStore(t, dir)
		for _, r := range acked {
			var v rec
			if !st.Get(r.Key, &v) || v.Cell != r.Key.Cell {
				t.Fatalf("crash at %d: acknowledged cell %d unreadable after the crash", crashAt, r.Key.Cell)
			}
		}
		for i, r := range doomed {
			if has := st.Has(r.Key); has != (i < crashAt) {
				t.Fatalf("crash at %d: doomed record %d present = %v", crashAt, i, has)
			}
		}
		for _, f := range recordFiles(t, dir) {
			if f == obstacle {
				continue
			}
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeRecordKey(raw); err != nil {
				t.Fatalf("crash at %d: half-record under final name %s: %v", crashAt, f, err)
			}
		}

		// The retry lands only what the crash cut off.
		if err := os.Remove(obstacle); err != nil {
			t.Fatal(err)
		}
		added, err := st.IngestBatch(doomed)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range added {
			if a != (i >= crashAt) {
				t.Fatalf("crash at %d: retry added = %v", crashAt, added)
			}
		}
		if got := len(recordFiles(t, dir)); got != len(acked)+n {
			t.Fatalf("crash at %d: %d record files after the retry, want %d", crashAt, got, len(acked)+n)
		}
	}
}
