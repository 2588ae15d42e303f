package experiments

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/results"
)

// Ceilings for the quick-scale catalog store, set at twice what the
// packed delay distributions measure (1.14 MB in 857 records, the
// largest — an "ooo" cell — 59 KB). Raw per-packet sample arrays as
// JSON numbers were 3.75 MB and 282 KB.
const (
	quickStoreBytesCeiling  = 2_300_000
	quickRecordBytesCeiling = 120_000
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

// TestCatalogStoreShape pins what a catalog run leaves in the store and
// that it reads back exactly: a second pass is all hits and renders the
// delay reports byte-identically to the pass that computed them; the
// stored groups are the active matrix -cache-prune keeps (Figure 13
// reads the "ooo" families, so no "fig13" group exists); and neither the
// store nor its largest record outgrows the packed form.
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
	RunCatalog(warm)
	got := renderDelayDrivers(warm)
	if h, c := warm.Results.Stats(); c != 0 || h == 0 {
		t.Fatalf("second pass: %d hits, %d computed; want every cell a hit", h, c)
	}
	if got != want {
		t.Fatalf("reports rendered from the store differ from the computed ones:\n--- computed ---\n%s\n--- from store ---\n%s", want, got)
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
	stored := make(map[results.Group]bool)
	families := make(map[string]bool)
	for _, line := range audit.Lines {
		stored[results.Group{Experiment: line.Experiment, Scale: line.Scale, Schema: line.Schema}] = true
		families[line.Experiment] = true
	}
	active := EnumerateActive(Quick)
	for _, g := range active {
		if !stored[g] {
			t.Errorf("active group %+v has no records after a full catalog run", g)
		}
		delete(stored, g)
	}
	for g := range stored {
		t.Errorf("stored group %+v is not in the active matrix (prune would delete it)", g)
	}
	if families["fig13"] {
		t.Error(`a "fig13" family exists; Figure 13 must read the "ooo" families`)
	}
	for _, fam := range []string{"ooo/0.3-8.6", "ooo/0.7-8.6", "ooo/1.1-8.6", "ooo/4.2-8.6"} {
		if !families[fam] {
			t.Errorf("family %q is missing from the store", fam)
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
