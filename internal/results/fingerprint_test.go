package results

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// captureWarnings swaps the warning sink for the test's lifetime.
func captureWarnings(t *testing.T) *[]string {
	t.Helper()
	var got []string
	old := warnf
	warnf = func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	}
	t.Cleanup(func() { warnf = old })
	return &got
}

func TestFingerprintRoundTripHits(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		Ratio float64
		OOO   []time.Duration
	}
	k := Key{Experiment: "fp", Cell: 1, Schema: 1, Scale: "v60"}
	if err := st.Put(k, rec{Ratio: 0.5, OOO: []time.Duration{time.Second}}); err != nil {
		t.Fatal(err)
	}
	var got rec
	if !st.Get(k, &got) || got.Ratio != 0.5 {
		t.Fatalf("round trip failed: %+v", got)
	}
}

func TestFingerprintStructuralNotNominal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type recV1 struct{ X int64 }
	type renamed struct{ X int64 } // same shape, different type name
	k := Key{Experiment: "fp", Cell: 2, Schema: 1, Scale: "v60"}
	if err := st.Put(k, recV1{X: 7}); err != nil {
		t.Fatal(err)
	}
	var got renamed
	if !st.Get(k, &got) || got.X != 7 {
		t.Fatal("renaming a payload type (same shape) must keep records valid")
	}
}

func TestFingerprintMismatchWarnsAndMisses(t *testing.T) {
	warnings := captureWarnings(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type oldShape struct{ Ratio float64 }
	type newShape struct {
		Ratio float64
		Extra int64 // simulator grew the record, nobody bumped Schema
	}
	k := Key{Experiment: "fp", Cell: 3, Schema: 1, Scale: "v60"}
	if err := st.Put(k, oldShape{Ratio: 0.25}); err != nil {
		t.Fatal(err)
	}
	var got newShape
	if st.Get(k, &got) {
		t.Fatal("shape-changed record was served as a hit")
	}
	if len(*warnings) != 1 {
		t.Fatalf("got %d warnings, want 1: %v", len(*warnings), *warnings)
	}
	if !strings.Contains((*warnings)[0], "bump the experiment's schema") {
		t.Fatalf("warning does not point at the schema bump: %q", (*warnings)[0])
	}
	// The warning is deduped per group.
	var again newShape
	st.Get(k, &again)
	if len(*warnings) != 1 {
		t.Fatalf("mismatch warning not deduped: %v", *warnings)
	}
	// Recomputing and rewriting heals the record for the new shape.
	if err := st.Put(k, newShape{Ratio: 0.25, Extra: 1}); err != nil {
		t.Fatal(err)
	}
	if !st.Get(k, &got) || got.Extra != 1 {
		t.Fatal("rewritten record not served")
	}
}

func TestLegacyRecordWithoutFingerprintMisses(t *testing.T) {
	warnings := captureWarnings(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ V int }
	k := Key{Experiment: "legacy", Cell: 0, Schema: 1, Scale: "v60"}
	// Hand-write a pre-fingerprint envelope at the record's path.
	data, _ := json.Marshal(rec{V: 9})
	legacy, _ := json.Marshal(struct {
		Key  Key             `json:"key"`
		Data json.RawMessage `json:"data"`
	}{Key: k, Data: data})
	if err := st.Put(k, rec{V: 1}); err != nil { // establish the path
		t.Fatal(err)
	}
	path := st.path(k)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var got rec
	if st.Get(k, &got) {
		t.Fatal("legacy record without fingerprint was served")
	}
	if len(*warnings) != 1 || !strings.Contains((*warnings)[0], "predate payload fingerprints") {
		t.Fatalf("warnings = %v", *warnings)
	}
}

// decimalCount and hexCount marshal themselves, and look alike from the
// outside: no exported fields, a JSON string on disk. Only their format
// names tell a record of one from a record of the other.
type decimalCount struct{ n int64 }

func (decimalCount) RecordFormat() string           { return "count/decimal" }
func (c decimalCount) MarshalJSON() ([]byte, error) { return countJSON(c.n, 10) }
func (c *decimalCount) UnmarshalJSON(b []byte) (err error) {
	c.n, err = parseCountJSON(b, 10)
	return err
}

type hexCount struct{ n int64 }

func (hexCount) RecordFormat() string           { return "count/hex" }
func (c hexCount) MarshalJSON() ([]byte, error) { return countJSON(c.n, 16) }
func (c *hexCount) UnmarshalJSON(b []byte) (err error) {
	c.n, err = parseCountJSON(b, 16)
	return err
}

func countJSON(n int64, base int) ([]byte, error) {
	return json.Marshal(strconv.FormatInt(n, base))
}

func parseCountJSON(b []byte, base int) (int64, error) {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return 0, err
	}
	return strconv.ParseInt(s, base, 64)
}

func TestRecordFormatIsPartOfTheFingerprint(t *testing.T) {
	warnings := captureWarnings(t)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Bare and nested: the format name must reach the signature through
	// a struct field too, as DelayDist does inside PageOutcome.
	type decimalRec struct {
		Runs  int
		Count decimalCount
	}
	type hexRec struct {
		Runs  int
		Count hexCount
	}
	bare := Key{Experiment: "fmt/bare", Cell: 0, Schema: 1, Scale: "v60"}
	nested := Key{Experiment: "fmt/nested", Cell: 0, Schema: 1, Scale: "v60"}
	if err := st.Put(bare, decimalCount{n: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(nested, decimalRec{Runs: 3, Count: decimalCount{n: 10}}); err != nil {
		t.Fatal(err)
	}

	// "10" would decode as sixteen if the record were served.
	var h hexCount
	if st.Get(bare, &h) || h.n != 0 {
		t.Fatalf("a record in another format was served (decoded %d)", h.n)
	}
	var hr hexRec
	if st.Get(nested, &hr) || hr != (hexRec{}) {
		t.Fatalf("a nested record in another format was served (decoded %+v)", hr)
	}
	if len(*warnings) != 2 {
		t.Fatalf("got %d warnings, want one per group: %v", len(*warnings), *warnings)
	}

	var d decimalCount
	var dr decimalRec
	if !st.Get(bare, &d) || d.n != 10 || !st.Get(nested, &dr) || dr.Count.n != 10 || dr.Runs != 3 {
		t.Fatalf("records in the current format were not served: %+v %+v", d, dr)
	}

	// The one production type that marshals itself takes part.
	var sig strings.Builder
	writeTypeSig(&sig, reflect.TypeOf(struct{ OOO metrics.DelayDist }{}), map[reflect.Type]bool{})
	if !strings.Contains(sig.String(), "OOO format("+metrics.DelayDist{}.RecordFormat()+")") {
		t.Fatalf("DelayDist's record format is missing from the signature %q", sig.String())
	}
}
