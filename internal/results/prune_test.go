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

// TestPruneKeepsOldRecordsInMatrix: a record's key is its whole
// identity, so a record the active matrix reads is current however long
// ago it was written.
func TestPruneKeepsOldRecordsInMatrix(t *testing.T) {
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
	if rep.DeletedRecords() != 0 || rep.KeptRecords != 1 {
		t.Fatalf("pass deleted %d records, kept %d; want 0, 1", rep.DeletedRecords(), rep.KeptRecords)
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
