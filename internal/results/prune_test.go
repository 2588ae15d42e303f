package results

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// prunePut stores one tiny record under the given group.
func prunePut(t *testing.T, st *Store, exp, scale string, schema, cell int) {
	t.Helper()
	type rec struct{ V int }
	k := Key{Experiment: exp, Cell: cell, Schema: schema, Scale: scale}
	if err := st.Put(k, rec{V: cell}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneDeletesOnlyRejectedGroups(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prunePut(t, st, "grid/ecf", "gv30", 2, 0)
	prunePut(t, st, "grid/ecf", "gv30", 2, 1)
	prunePut(t, st, "grid/ecf", "gv90", 2, 0) // stale scale
	prunePut(t, st, "fig16", "rd80,rs3", 1, 0)
	prunePut(t, st, "oldexp", "v60", 1, 0) // stale experiment

	active := map[Spec]bool{
		{Experiment: "grid/ecf", Scale: "gv30", Schema: 2}:  true,
		{Experiment: "fig16", Scale: "rd80,rs3", Schema: 1}: true,
	}
	keep := func(g Spec) bool { return active[g] }

	// Dry run: full report, nothing removed.
	rep, err := st.Prune(PruneOptions{Keep: keep, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeletedRecords() != 2 || len(rep.Deleted) != 2 {
		t.Fatalf("dry-run: DeletedRecords = %d, groups = %d; want 2, 2", rep.DeletedRecords(), len(rep.Deleted))
	}
	if rep.KeptRecords != 3 {
		t.Fatalf("dry-run: KeptRecords = %d, want 3", rep.KeptRecords)
	}
	if audit, _ := st.Audit(); audit.Records != 5 {
		t.Fatalf("dry run removed records: %d left, want 5", audit.Records)
	}

	// Real pass.
	rep, err = st.Prune(PruneOptions{Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeletedRecords() != 2 {
		t.Fatalf("DeletedRecords = %d, want 2", rep.DeletedRecords())
	}
	audit, err := st.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.Records != 3 {
		t.Fatalf("%d records left, want 3", audit.Records)
	}
	for _, line := range audit.Lines {
		if !active[line.Spec] {
			t.Fatalf("stale group %+v survived the prune", line)
		}
	}
	// The emptied experiment directory is gone.
	if _, err := os.Stat(filepath.Join(dir, "oldexp")); !os.IsNotExist(err) {
		t.Fatalf("emptied experiment dir survived: %v", err)
	}
	// The kept records still decode.
	var got struct{ V int }
	if !st.Get(Key{Experiment: "fig16", Cell: 0, Schema: 1, Scale: "rd80,rs3"}, &got) || got.V != 0 {
		t.Fatal("kept record no longer readable")
	}
}

// backdate rewinds every record file of one experiment directory to the
// given mtime, simulating records last written long ago.
func backdate(t *testing.T, dir, exp string, mtime time.Time) {
	t.Helper()
	files, err := os.ReadDir(filepath.Join(dir, exp))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := os.Chtimes(filepath.Join(dir, exp, f.Name()), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPruneOlderThanAgesOutActiveMatrixRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prunePut(t, st, "grid/ecf", "gv30", 2, 0) // fresh, in matrix
	prunePut(t, st, "fig16", "rd80,rs3", 1, 0)
	prunePut(t, st, "fig16", "rd80,rs3", 1, 1) // both backdated, in matrix
	prunePut(t, st, "oldexp", "v60", 1, 0)     // fresh but outside matrix

	now := time.Now()
	backdate(t, dir, "fig16", now.Add(-48*time.Hour))

	active := map[Spec]bool{
		{Experiment: "grid/ecf", Scale: "gv30", Schema: 2}:  true,
		{Experiment: "fig16", Scale: "rd80,rs3", Schema: 1}: true,
	}
	opts := PruneOptions{
		Keep:      func(g Spec) bool { return active[g] },
		OlderThan: 24 * time.Hour,
		Now:       now,
		DryRun:    true,
	}

	// Dry run: aged and stale records reported separately, nothing gone.
	rep, err := st.Prune(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgedRecords() != 2 || len(rep.Aged) != 1 {
		t.Fatalf("dry-run: AgedRecords = %d, groups = %d; want 2, 1", rep.AgedRecords(), len(rep.Aged))
	}
	if rep.DeletedRecords() != 1 {
		t.Fatalf("dry-run: DeletedRecords = %d, want 1", rep.DeletedRecords())
	}
	if rep.KeptRecords != 1 {
		t.Fatalf("dry-run: KeptRecords = %d, want 1", rep.KeptRecords)
	}
	if audit, _ := st.Audit(); audit.Records != 4 {
		t.Fatalf("dry run removed records: %d left, want 4", audit.Records)
	}

	// Real pass: only the fresh in-matrix record survives.
	opts.DryRun = false
	rep, err = st.Prune(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgedRecords() != 2 || rep.DeletedRecords() != 1 {
		t.Fatalf("AgedRecords = %d, DeletedRecords = %d; want 2, 1", rep.AgedRecords(), rep.DeletedRecords())
	}
	audit, err := st.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.Records != 1 {
		t.Fatalf("%d records left, want 1", audit.Records)
	}
	if got := audit.Lines[0]; got.Experiment != "grid/ecf" {
		t.Fatalf("surviving group = %+v, want grid/ecf", got)
	}
	// A later pass with the same cutoff finds nothing new to age out.
	rep, err = st.Prune(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgedRecords() != 0 || rep.DeletedRecords() != 0 || rep.KeptRecords != 1 {
		t.Fatalf("idempotence: aged %d, deleted %d, kept %d", rep.AgedRecords(), rep.DeletedRecords(), rep.KeptRecords)
	}
}

func TestPruneNilKeepIsAgeOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prunePut(t, st, "fig16", "rd80,rs3", 1, 0)
	prunePut(t, st, "oldexp", "v60", 1, 0)
	backdate(t, dir, "oldexp", time.Now().Add(-48*time.Hour))
	rep, err := st.Prune(PruneOptions{OlderThan: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeletedRecords() != 0 {
		t.Fatalf("nil Keep deleted %d records as out-of-matrix, want 0", rep.DeletedRecords())
	}
	if rep.AgedRecords() != 1 || rep.KeptRecords != 1 {
		t.Fatalf("age-only pass aged %d, kept %d; want 1, 1", rep.AgedRecords(), rep.KeptRecords)
	}
}

func TestPruneOlderThanZeroKeepsEverythingInMatrix(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prunePut(t, st, "fig16", "rd80,rs3", 1, 0)
	backdate(t, dir, "fig16", time.Now().Add(-1000*time.Hour))
	rep, err := st.Prune(PruneOptions{Keep: func(Spec) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AgedRecords() != 0 || rep.KeptRecords != 1 {
		t.Fatalf("no-cutoff pass aged %d records, kept %d; want 0, 1", rep.AgedRecords(), rep.KeptRecords)
	}
}

func TestPruneLeavesUnreadableFilesInPlace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prunePut(t, st, "fig16", "rd80,rs3", 1, 0)
	trunc := filepath.Join(dir, "fig16", "c9999-dead.json")
	if err := os.WriteFile(trunc, []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := st.Prune(PruneOptions{Keep: func(Spec) bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unreadable != 1 {
		t.Fatalf("Unreadable = %d, want 1", rep.Unreadable)
	}
	if _, err := os.Stat(trunc); err != nil {
		t.Fatalf("unreadable file was removed: %v", err)
	}
}
