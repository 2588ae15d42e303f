package results

import (
	"os"
	"path/filepath"
	"testing"
)

func TestAuditGroupsAndTotals(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ V int }
	put := func(exp, scale string, schema, cell int) {
		k := Key{Experiment: exp, Cell: cell, Schema: schema, Scale: scale}
		if err := st.Put(k, rec{V: cell}); err != nil {
			t.Fatal(err)
		}
	}
	put("grid/ecf", "gv30", 2, 0)
	put("grid/ecf", "gv30", 2, 1)
	put("grid/ecf", "gv90", 2, 0) // same experiment, other scale
	put("fig16", "rd80,rs3", 1, 0)
	// A partial write that a killed process could leave behind.
	if err := os.WriteFile(filepath.Join(dir, "fig16", "c9999-dead.json"), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 4 {
		t.Fatalf("Records = %d, want 4", rep.Records)
	}
	if rep.Unreadable != 1 {
		t.Fatalf("Unreadable = %d, want 1", rep.Unreadable)
	}
	if rep.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want > 0", rep.Bytes)
	}
	want := []AuditLine{
		{Spec: Spec{Experiment: "fig16", Scale: "rd80,rs3", Schema: 1}, Records: 1},
		{Spec: Spec{Experiment: "grid/ecf", Scale: "gv30", Schema: 2}, Records: 2},
		{Spec: Spec{Experiment: "grid/ecf", Scale: "gv90", Schema: 2}, Records: 1},
	}
	if len(rep.Lines) != len(want) {
		t.Fatalf("got %d lines, want %d: %+v", len(rep.Lines), len(want), rep.Lines)
	}
	for i, w := range want {
		g := rep.Lines[i]
		if g.Spec != w.Spec || g.Records != w.Records {
			t.Fatalf("line %d = %+v, want %+v (bytes aside)", i, g, w)
		}
	}
}

func TestAuditEmptyStore(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || len(rep.Lines) != 0 || rep.Unreadable != 0 {
		t.Fatalf("empty store audit = %+v, want zeroes", rep)
	}
}
