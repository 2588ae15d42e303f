package experiments

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/results"
)

// Ceilings for the quick-scale catalog store, about twice what the
// packed records measure: 934,849 bytes in 842 records, the largest —
// an "ooo" cell — 57,212. Raw per-packet delay arrays as JSON numbers
// were 3.75 MB and 282 KB; the "sampled" traces as JSON numbers made the
// store 975,652 bytes.
const (
	quickStoreBytesCeiling  = 1_870_000
	quickRecordBytesCeiling = 115_000
)

// renderDelayDrivers renders the reports that read per-packet delay
// records (the "ooo" families, web-browsing, fig23).
func renderDelayDrivers(sc Scale) string {
	var b strings.Builder
	b.WriteString(Figure13(sc).String())
	b.WriteString(Figure14(sc).String())
	b.WriteString(Figure20(sc).String())
	b.WriteString(Figure21(sc).String())
	b.WriteString(Figure23(sc).String())
	b.WriteString(Table4(sc).String())
	return b.String()
}

// TestCatalogSharesRecordsWithinOneRun renders the quick catalog plan,
// where every experiment that reads a key receives the one record its
// one job produced, and requires the reports — many of them rendered
// from records another experiment already collected and rendered — to
// be byte-identical to experiments that each ran on a plan of their own
// and share nothing. A collector or renderer that changed a shared
// record in place would show here as a differing later report.
func TestCatalogSharesRecordsWithinOneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick catalog twice")
	}
	var want, got strings.Builder
	for _, e := range Catalog {
		want.WriteString(alone(Quick, e.plan).String())
	}
	p := NewPlan(Quick, Catalog...)
	if err := p.Run(0, &results.Session{}); err != nil {
		t.Fatal(err)
	}
	for i := range Catalog {
		got.WriteString(p.Render(i).String())
	}
	if got.String() != want.String() {
		t.Fatal("the catalog plan renders differently from experiments that share nothing")
	}
}

// TestQuickCatalogPlanComputesEachKeyOnce: the quick catalog reads 1075
// cells, 842 of them distinct, and one run of its plan on two workers
// computes each of the 842 once and serves none from memory (the
// session has no store) — no key is scheduled twice.
func TestQuickCatalogPlanComputesEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick catalog")
	}
	p := NewPlan(Quick, Catalog...)
	reads := 0
	for i := range Catalog {
		reads += len(p.Reads(i))
	}
	if cells := len(p.Cells()); reads != 1075 || cells != 842 {
		t.Fatalf("the quick catalog plan reads %d cells, %d distinct; want 1075 and 842", reads, cells)
	}
	ses := &results.Session{}
	if err := p.Run(2, ses); err != nil {
		t.Fatal(err)
	}
	if hits, computed := ses.Stats(); computed != 842 || hits != 0 {
		t.Fatalf("one run computed %d cells with %d memory hits; want 842 and 0", computed, hits)
	}
}

// TestCatalogStoreShape pins what a catalog run leaves in the store and
// that it reads back exactly: a second pass is all hits, every record it
// serves re-encodes to exactly its bytes on disk (so no family's codec
// is lossy or accepts a form it would not write), and it renders the
// delay reports byte-identically to the pass that computed them; the
// stored families are, cell for cell, the matrix EnumerateCells lists —
// what -cache-prune keeps and ecfd leases out (Table 3 and Figures 5
// and 13 read the "ooo" families, Figures 3, 11 and 12 the "sampled"
// one and Figure 17 Figure 16's, so no group is named after any of
// them); and neither the store nor its largest record outgrows the
// packed form.
func TestCatalogStoreShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick catalog")
	}
	dir := t.TempDir()

	cold := Quick
	cold.Results = cacheSession(t, dir)
	want := renderDelayDrivers(cold) // computes these families
	RunCatalog(cold)

	warm := Quick
	warm.Results = cacheSession(t, dir)
	canon := &reencodeSink{onDisk: storedRecords(t, dir)}
	warm.Results.Sink = canon
	RunCatalog(warm)
	got := renderDelayDrivers(warm)
	if h, c := warm.Results.Stats(); c != 0 || h == 0 {
		t.Fatalf("second pass: %d hits, %d computed; want every cell a hit", h, c)
	}
	if got != want {
		t.Fatalf("reports rendered from the store differ from the computed ones:\n--- computed ---\n%s\n--- from store ---\n%s", want, got)
	}
	for _, bad := range canon.bad {
		t.Error(bad)
	}
	if len(canon.served) != len(canon.onDisk) {
		t.Errorf("the warm pass served %d of the store's %d records", len(canon.served), len(canon.onDisk))
	}

	store, err := results.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := store.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if _, computed := cold.Results.Stats(); audit.Unreadable != 0 || int64(audit.Records) != computed {
		t.Fatalf("store holds %d records (%d unreadable) for %d computed cells", audit.Records, audit.Unreadable, computed)
	}
	stored := make(map[results.Spec]int)
	families := make(map[string]int)
	for _, line := range audit.Lines {
		stored[line.Spec] = line.Records
		families[line.Experiment] += line.Records
	}
	for _, f := range EnumerateCells(Quick) {
		if stored[f.Spec] != f.Cells {
			t.Errorf("family %+v holds %d records after a full catalog run; EnumerateCells lists %d cells", f.Spec, stored[f.Spec], f.Cells)
		}
		delete(stored, f.Spec)
	}
	for g := range stored {
		t.Errorf("stored family %+v is not in the enumerated matrix (prune would delete it)", g)
	}
	for _, fam := range []string{"table3", "fig3", "fig5", "fig11", "fig12", "fig13", "fig17", "cwnd/sf0", "cwnd/sf1"} {
		if families[fam] != 0 {
			t.Errorf("a %q family exists; its driver must read the shared \"ooo\", \"sampled\" or \"fig16\" records", fam)
		}
	}
	// Figure 14 fills two pairs for all four schedulers; Figures 5 and 13
	// add the default-scheduler cell of the other two.
	for fam, records := range map[string]int{
		"ooo/0.3-8.6": 4, "ooo/0.7-8.6": 1, "ooo/1.1-8.6": 1, "ooo/4.2-8.6": 4,
		"sampled/0.3-8.6": 4,
	} {
		if families[fam] != records {
			t.Errorf("family %q holds %d records, want %d", fam, families[fam], records)
		}
	}

	if audit.Bytes > quickStoreBytesCeiling {
		t.Errorf("store is %d bytes, ceiling %d", audit.Bytes, quickStoreBytesCeiling)
	}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil && info.Size() > quickRecordBytesCeiling {
			t.Errorf("record %s is %d bytes, ceiling %d", path, info.Size(), quickRecordBytesCeiling)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// storedRecords reads every record file under dir, by the key its
// envelope carries.
func storedRecords(t *testing.T, dir string) map[results.Key][]byte {
	t.Helper()
	recs := make(map[results.Key][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env struct {
			Key results.Key `json:"key"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		recs[env.Key] = raw
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// reencodeSink receives every record a session serves and holds it to
// its bytes on disk: results.EncodeRecord of the decoded value must
// write the file it was read from.
type reencodeSink struct {
	onDisk map[results.Key][]byte

	mu     sync.Mutex
	served map[results.Key]bool
	bad    []string
}

func (s *reencodeSink) Put(k results.Key, v any) error {
	raw, err := results.EncodeRecord(k, v)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.served == nil {
		s.served = make(map[results.Key]bool)
	}
	s.served[k] = true
	switch disk, ok := s.onDisk[k]; {
	case err != nil:
		s.bad = append(s.bad, fmt.Sprintf("cell %d of %q does not re-encode: %v", k.Cell, k.Experiment, err))
	case !ok:
		s.bad = append(s.bad, fmt.Sprintf("cell %d of %q was served but is not on disk", k.Cell, k.Experiment))
	case string(raw) != string(disk):
		s.bad = append(s.bad, fmt.Sprintf("cell %d of %q re-encodes to %d bytes that differ from its %d on disk", k.Cell, k.Experiment, len(raw), len(disk)))
	}
	return nil
}
