package results

import (
	"fmt"
	"testing"
)

// TestResolveDecisionTable drives the one per-cell decision in front of
// compute through every combination of Merge, the Claims gate (nil,
// claiming, refusing), and where the cell's record is (the memo, the
// store, nowhere). Each row names the outcome — skip, serve + upload,
// note a miss, or compute — and whether the memo gained a record: a
// store hit does, and a compute gains its record only once it has one. A
// traced cell never reaches resolve (experiments.Trace runs its scenario
// outside any session), so every row's name reads traced=false.
func TestResolveDecisionTable(t *testing.T) {
	type outcome string
	const (
		skip    outcome = "skip"
		serve   outcome = "serve+upload"
		miss    outcome = "note miss"
		compute outcome = "compute"
	)
	cases := []struct {
		merge  bool
		claims string // "nil", "true" or "false"
		source string // "memo", "store" or "none"
		want   outcome
		slot   bool
	}{
		{false, "nil", "memo", serve, false},
		{false, "nil", "store", serve, true},
		{false, "nil", "none", compute, false},
		{false, "true", "memo", serve, false},
		{false, "true", "store", serve, true},
		{false, "true", "none", compute, false},
		{false, "false", "memo", skip, false},
		{false, "false", "store", skip, false},
		{false, "false", "none", skip, false},
		{true, "nil", "memo", serve, false},
		{true, "nil", "store", serve, true},
		{true, "nil", "none", miss, false},
		{true, "true", "memo", serve, false},
		{true, "true", "store", serve, true},
		{true, "true", "none", miss, false},
		{true, "false", "memo", skip, false},
		{true, "false", "store", skip, false},
		{true, "false", "none", skip, false},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("merge=%v/claims=%s/traced=false/%s", tc.merge, tc.claims, tc.source)
		t.Run(name, func(t *testing.T) {
			k := spec().Key(0)
			stored := rec{Cell: 0, Label: "stored"}
			sink := newMemSink()
			s := &Session{Store: openStore(t, t.TempDir()), Merge: tc.merge, Sink: sink}
			switch tc.source {
			case "memo":
				s.remember(k, stored)
			case "store":
				if err := s.Store.Put(k, stored); err != nil {
					t.Fatal(err)
				}
			}
			switch tc.claims {
			case "true":
				s.Claims = func(Key) bool { return true }
			case "false":
				s.Claims = func(Key) bool { return false }
			}
			slots := len(s.memo)

			var collected []rec
			done, err := resolve(s, k, 0, func(_ int, v rec) { collected = append(collected, v) })
			if err != nil {
				t.Fatal(err)
			}
			var got outcome
			switch {
			case !done:
				got = compute
			case len(collected) == 1 && collected[0] == stored && sink.len() == 1 && len(s.MissingCells()) == 0:
				got = serve
			case len(collected) == 0 && sink.len() == 0 && len(s.MissingCells()) == 1:
				got = miss
			case len(collected) == 0 && sink.len() == 0 && len(s.MissingCells()) == 0:
				got = skip
			default:
				t.Fatalf("done with %d collected, %d uploaded, %d misses", len(collected), sink.len(), len(s.MissingCells()))
			}
			if got != tc.want {
				t.Errorf("outcome = %s, want %s", got, tc.want)
			}
			if gained := len(s.memo) > slots; gained != tc.slot {
				t.Errorf("memo gained a record = %v, want %v", gained, tc.slot)
			}
		})
	}
}
