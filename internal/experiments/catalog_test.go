package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/results"
	"repro/internal/sim"
)

// splitName splits "table3" or "fig14" into kind and number.
func splitName(name string) (kind string, n int) {
	for _, k := range []string{"table", "fig"} {
		if _, err := fmt.Sscanf(name, k+"%d", &n); err == nil && name == fmt.Sprint(k, n) {
			return k, n
		}
	}
	return "", 0
}

// TestCatalogNamesAndOrder pins what ecfbench -list, -exp and -exp all
// take from the one table: every entry is complete and resolves by its
// name, and the order is the paper's — Tables 1–4, then the figures by
// ascending number up to Figure 23 (ascending within a kind also makes
// the names unique). That the cells EnumerateCells lists are exactly
// the cells a run over the same table computes is
// TestCatalogStoreShape's family-by-family comparison.
func TestCatalogNamesAndOrder(t *testing.T) {
	if len(Catalog) != 25 {
		t.Fatalf("Catalog has %d entries, want the paper's 25 tables and figures", len(Catalog))
	}
	prevKind, prevN := "table", 0
	for i, e := range Catalog {
		if e.Desc == "" || e.plan == nil {
			t.Errorf("entry %d (%q) is missing its description or planner", i, e.Name)
		}
		if got, ok := ByName(e.Name); !ok || got.Name != e.Name || got.Desc != e.Desc {
			t.Errorf("ByName(%q) = %+v, %v; want entry %d", e.Name, got, ok, i)
		}
		kind, n := splitName(e.Name)
		switch {
		case kind == "":
			t.Fatalf("entry %d is named %q, want table<N> or fig<N>", i, e.Name)
		case kind == prevKind && n <= prevN:
			t.Fatalf("entry %d is %q after %s%d; want ascending numbers", i, e.Name, prevKind, prevN)
		case kind != prevKind && (kind != "fig" || prevN != 4):
			t.Fatalf("entry %d is %q after %s%d; want the figures after Table 4", i, e.Name, prevKind, prevN)
		}
		prevKind, prevN = kind, n
	}
	if prevKind != "fig" || prevN != 23 {
		t.Fatalf("Catalog ends at %s%d, want fig23", prevKind, prevN)
	}
	if _, ok := ByName("all"); ok {
		t.Error(`"all" resolves to an experiment; ecfbench reserves it for the whole catalog`)
	}
}

// TestQuickCatalogMatchesGolden renders the quick catalog once, as
// `ecfbench -exp all -scale quick` does — one plan, so cells shared
// between experiments are simulated once — and compares the SHA-256 of
// each experiment's block, and of their concatenation, with the quick
// entries of benchmark/golden.json. It moves no byte of that file: a
// change that alters any experiment's output on purpose re-blesses it
// with `go run ./benchmark -bless`.
func TestQuickCatalogMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("benchmark/golden.json: %v", err)
	}
	quick := golden["quick"]
	p := NewPlan(Quick, Catalog...)
	q0 := sim.TotalQueueStats()
	if err := p.Run(0, &results.Session{}, nil); err != nil {
		t.Fatal(err)
	}
	// DeepRuns is a process-wide sum, so its difference counts this
	// pass's engine runs whatever ran before; DepthMax could not.
	if q1 := sim.TotalQueueStats(); q1.DeepRuns != q0.DeepRuns {
		t.Errorf("%d engine runs of the quick catalog queued more than 32 pending events (deepest run in this process: %d). "+
			"The sorted-slice event queue pays one move per pending event due sooner than an insert, and beats a heap only at shallow depth; "+
			"measure BenchmarkEventQueueChurn at the new depth before accepting it", q1.DeepRuns-q0.DeepRuns, q1.DepthMax)
	}
	all := sha256.New()
	for i, e := range Catalog {
		block := fmt.Sprintf("=== %s (%s) ===\n%s\n", e.Name, e.Desc, p.Render(i))
		all.Write([]byte(block))
		sum := sha256.Sum256([]byte(block))
		if got, want := hex.EncodeToString(sum[:]), quick[e.Name].SHA256; got != want {
			t.Errorf("%s at quick scale renders sha256 %s, golden.json has %q; if the change is intended, re-bless with `go run ./benchmark -bless`", e.Name, got, want)
		}
	}
	if got, want := hex.EncodeToString(all.Sum(nil)), quick["all"].SHA256; got != want {
		t.Errorf("the quick catalog renders sha256 %s, golden.json has %q; if the change is intended, re-bless with `go run ./benchmark -bless`", got, want)
	}
}
