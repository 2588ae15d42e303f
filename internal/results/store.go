package results

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// Store is the on-disk cell cache: one JSON file per record, grouped in
// a directory per experiment, named by cell index plus the key's
// content hash. Writes are atomic and durable (temp file, fsync, rename,
// directory fsync) so neither a concurrent writer, a killed process nor
// a machine crash can leave a half-record behind under the final name;
// reads treat any unreadable, undecodable or mismatched file as a miss,
// so a cache corrupted by other means heals itself by recomputation.
type Store struct {
	root string
}

// Open prepares dir as a cell store, creating it (and parents) when
// missing and probing writability up front so an unusable -cache-dir
// fails with a clear message before any simulation runs.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cannot create cache dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return nil, fmt.Errorf("cache dir %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return &Store{root: dir}, nil
}

// OpenRead prepares dir as a read-only record source — the -merge
// pass, which never writes, so a store on a read-only mount (or
// another user's copied shard output) works. The directory must
// already exist.
func OpenRead(dir string) (*Store, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("cache dir %s: %w", dir, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("cache dir %s is not a directory", dir)
	}
	return &Store{root: dir}, nil
}

// envelope pairs the key with the payload on disk, so a read verifies
// it decoded the record it asked for (guarding against hash collisions
// and hand-edited files).
type envelope struct {
	Key  Key             `json:"key"`
	Data json.RawMessage `json:"data"`
}

// path places a record at <root>/<experiment>/c<cell>-<hash>.json. The
// experiment segment is sanitized for the filesystem; the hash is the
// actual address, the rest is for humans browsing the cache.
func (s *Store) path(k Key) string {
	exp := []byte(k.Experiment)
	for i, c := range exp {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
		default:
			exp[i] = '_'
		}
	}
	return filepath.Join(s.root, string(exp), fmt.Sprintf("c%04d-%s.json", k.Cell, k.hash()))
}

// Get decodes the record for k into into (a non-nil pointer). It
// returns false on any miss: no file, unreadable file, malformed JSON
// (trailing bytes included), a stored key that does not match the
// request, an absent or null payload, or a payload that does not decode
// into the target type. into is written only on a hit. The key is the
// record's whole identity (the caller derives it from everything the
// record depends on, its shape included), so a record that decodes under
// its key is current.
//
// The file is decoded by one json.Unmarshal: key and payload in a
// single pass, the payload straight into a fresh value of the target
// type. The key is therefore checked after the payload was decoded,
// which is why the payload lands in a scratch value first: a foreign
// record must not leave its fields in the caller's variable.
func (s *Store) Get(k Key, into any) bool {
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		return false
	}
	// slot is a pointer to a nil pointer of into's type. The decoder
	// allocates the payload value behind it when, and only when, the
	// file carries a non-null "data", so a nil slot afterwards means the
	// payload was absent.
	dst := reflect.ValueOf(into)
	slot := reflect.New(dst.Type())
	env := struct {
		Key  Key `json:"key"`
		Data any `json:"data"`
	}{Data: slot.Interface()}
	if json.Unmarshal(raw, &env) != nil || env.Key != k || slot.Elem().IsNil() {
		return false
	}
	dst.Elem().Set(slot.Elem().Elem())
	return true
}

// Put atomically and durably persists v as the record for k.
func (s *Store) Put(k Key, v any) error {
	raw, err := EncodeRecord(k, v)
	if err != nil {
		return err
	}
	return s.write(k, raw)
}

// Has reports whether the store holds a record for k: the file exists
// and decodeRecordKey accepts it under k. Unlike Get it needs no target
// type — it is the coordinator's type-free notion of "this cell is
// done", and the ingest gate's: a truncated or foreign file, or one
// whose payload is absent or null, counts as absent, so a record Get
// accepts is one Has reports.
func (s *Store) Has(k Key) bool {
	raw, err := os.ReadFile(s.path(k))
	if err != nil {
		return false
	}
	got, err := decodeRecordKey(raw)
	return err == nil && got == k
}

// Record is one serialized record envelope (as built by EncodeRecord,
// typically on another machine) and the key it is offered under.
type Record struct {
	Key Key
	Raw []byte
}

// IngestBatch idempotently persists a batch of serialized record
// envelopes with one group commit. Every envelope must pass
// decodeRecordKey under the key it is offered under, or the whole batch
// is rejected before
// anything is written. A record already present (or offered earlier in
// the same batch) is a no-op — added[i] reports false and nothing is
// written — so replayed and duplicated uploads (a retried RPC whose
// first attempt did land, a worker whose lease was stolen finishing
// anyway) converge on exactly one record. Under the determinism
// contract every writer computes the same bytes for a cell, so
// first-write-wins loses nothing.
//
// The commit is the atomicWriteFile discipline with the directory
// fsync shared: each new record is written to a temp file, fsynced and
// renamed, then every directory a rename touched is fsynced once. The
// batch is durable only when IngestBatch returns nil; a caller must not
// acknowledge any of its records before that. An error part-way leaves
// complete records (never a half-record) under some final names, which
// a retry finds present.
func (s *Store) IngestBatch(recs []Record) (added []bool, err error) {
	for _, r := range recs {
		got, err := decodeRecordKey(r.Raw)
		if err != nil {
			return nil, fmt.Errorf("cache: ingest for cell %d of %q: %w", r.Key.Cell, r.Key.Experiment, err)
		}
		if got != r.Key {
			return nil, fmt.Errorf("cache: ingest for cell %d of %q carries key for cell %d of %q", r.Key.Cell, r.Key.Experiment, got.Cell, got.Experiment)
		}
	}
	added = make([]bool, len(recs))
	touched := map[string]bool{} // directories a rename (or mkdir) changed
	for i, r := range recs {
		if s.Has(r.Key) {
			continue // present before the batch, or landed earlier in it
		}
		path := s.path(r.Key)
		dir := filepath.Dir(path)
		switch err := os.Mkdir(dir, 0o755); {
		case err == nil:
			touched[s.root] = true // the new directory's own entry
		case !os.IsExist(err):
			return nil, fmt.Errorf("cache: %w", err)
		}
		if err := landFile(path, r.Raw); err != nil {
			return nil, fmt.Errorf("cache: writing cell %d of %q: %w", r.Key.Cell, r.Key.Experiment, err)
		}
		touched[dir] = true
		added[i] = true
	}
	for dir := range touched {
		if err := syncDir(dir); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	return added, nil
}

// write durably lands raw at k's path.
func (s *Store) write(k Key, raw []byte) error {
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if err := atomicWriteFile(path, raw); err != nil {
		return fmt.Errorf("cache: writing cell %d of %q: %w", k.Cell, k.Experiment, err)
	}
	return nil
}

// EncodeRecord serializes v as the store's record envelope for k — the
// exact bytes Put writes, and the wire format a distributed worker
// uploads for Store.IngestBatch on the coordinator.
func EncodeRecord(k Key, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding cell %d of %q: %w", k.Cell, k.Experiment, err)
	}
	raw, err := json.Marshal(envelope{Key: k, Data: data})
	if err != nil {
		return nil, fmt.Errorf("cache: encoding cell %d of %q: %w", k.Cell, k.Experiment, err)
	}
	return raw, nil
}

// decodeRecordKey returns the key a serialized record envelope claims
// to carry, rejecting envelopes that are not valid JSON, carry no key,
// or carry an absent or null payload. It is the store's one notion of a
// record, which Has, the ingest gate, Audit and Prune share; Get also
// requires the payload to decode into its target type. json.Unmarshal
// validates the whole envelope, payload included, before it decodes
// anything, so the payload needs no second scan.
func decodeRecordKey(raw []byte) (Key, error) {
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return Key{}, fmt.Errorf("malformed record envelope: %w", err)
	}
	if env.Key.Experiment == "" {
		return Key{}, fmt.Errorf("record envelope carries no key")
	}
	if len(env.Data) == 0 || string(env.Data) == "null" {
		return Key{}, fmt.Errorf("record envelope for cell %d of %q carries no payload", env.Key.Cell, env.Key.Experiment)
	}
	return env.Key, nil
}

// atomicWriteFile lands data at path so that after a crash at any
// instant the path holds either the complete old content or the
// complete new content, and the new content survives power loss once
// atomicWriteFile returns: write to a temp file in the same directory,
// fsync it, rename over the target, fsync the directory (the rename
// itself is not durable until its directory is). This is the auklet
// object-store atomic-writer discipline.
func atomicWriteFile(path string, data []byte) error {
	if err := landFile(path, data); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// landFile is atomicWriteFile without the directory fsync: after it
// returns, path holds the complete fsynced data, but the rename that
// put it there is not durable until the caller fsyncs the directory.
func landFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
