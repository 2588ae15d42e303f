package results

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecord writes arbitrary bytes as the record file of a key and
// reads it back both ways a store's bytes are read: Store.Get into a
// record type, and DecodeRecordKey, the ingest gate. Neither may panic,
// and a record Get accepts must carry the key it was read under — which
// DecodeRecordKey must then report too.
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
		ok := st.Get(k, &v)
		got, err := DecodeRecordKey(raw)
		if ok && (err != nil || got != k) {
			t.Fatalf("Get accepted %q under %+v, but the envelope carries %+v (%v)", raw, k, got, err)
		}
	})
}
