package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecord writes arbitrary bytes as the record file of a key and
// reads it back every way a store's bytes are read: Store.Get into a
// record type, Has, and the ingest gate (IngestBatch under the same
// key). None may panic, and all share one notion of a record: a record
// Get accepts is one Has reports; Has holds exactly when the ingest gate
// accepts the bytes under the key; and a record Has reports carries a
// payload, present and not null, so only the payload's type can make
// Get miss it.
func FuzzStoreRecord(f *testing.F) {
	k := spec().Key(3)
	good, err := EncodeRecord(k, rec{Cell: 3, Label: "c3", Value: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	foreign, err := EncodeRecord(spec().Key(4), rec{Cell: 4})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(foreign)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"key":{"experiment":"unit/alpha","cell":3,"schema":1,"scale":"s1"},"data":null}`))
	f.Add([]byte(`{"KEY":{"experiment":"unit/alpha","cell":3,"schema":1,"scale":"s1"},"data":{"Cell":"x"}}`))
	f.Add([]byte("null"))
	f.Add([]byte(`{"key":{"experiment":"unit/alpha","cell":3,"schema":1,"scale":"s1"}}`))

	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := st.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var v rec
		got := st.Get(k, &v)
		has := st.Has(k)
		if got && !has {
			t.Fatalf("Get accepted %q under %+v, but Has reports no record", raw, k)
		}
		if _, err := st.IngestBatch([]Record{{Key: k, Raw: raw}}); has != (err == nil) {
			t.Fatalf("Has = %v for %q, but the ingest gate returns %v", has, raw, err)
		}
		var payload struct {
			Data *json.RawMessage `json:"data"`
		}
		if has && (json.Unmarshal(raw, &payload) != nil || payload.Data == nil) {
			t.Fatalf("Has reports %q as a record, but its payload is absent or null", raw)
		}
	})
}
