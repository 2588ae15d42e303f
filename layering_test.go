package repro

import (
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// layers is the import DAG of internal/: for each package, the repro
// packages its non-test files may import. A simulator layer sees only
// the layers beneath it (sim → netsim → tcp → mptcp → sched → core); the
// experiment side (trace, dash, web, experiments) sits on top; the cell
// store and the sweep coordinator know nothing of the simulator.
var layers = map[string][]string{
	"cc":      nil,
	"metrics": nil,
	"obs":     nil,
	"ring":    nil,
	"sim":     {"obs"},
	"netsim":  {"sim", "ring", "obs"},
	"tcp":     {"sim", "ring", "obs", "cc", "netsim"},
	"mptcp":   {"sim", "ring", "obs", "cc", "netsim", "tcp"},
	"sched":   {"mptcp", "tcp", "obs"},
	"core":    {"sim", "ring", "cc", "netsim", "tcp", "mptcp", "sched"},
	"trace":   {"core", "netsim", "sim"},
	"dash":    {"mptcp", "sim"},
	"web":     {"mptcp", "sim"},
	"results": nil,
	"coord":   {"results"},
	"experiments": {"sim", "cc", "netsim", "tcp", "mptcp", "sched", "core",
		"trace", "dash", "web", "metrics", "results", "obs"},
}

// TestInternalImportLayering fails when an internal package imports a
// repro package its layer does not allow, or when a package has no
// entry in layers.
func TestInternalImportLayering(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg, err := build.ImportDir(filepath.Join("internal", d.Name()), 0)
		if err != nil {
			t.Fatalf("internal/%s: %v", d.Name(), err)
		}
		allowed, ok := layers[d.Name()]
		if !ok {
			t.Errorf("internal/%s has no entry in layers", d.Name())
			continue
		}
		seen++
		var bad []string
		for _, imp := range pkg.Imports {
			name, ok := strings.CutPrefix(imp, "repro/internal/")
			if !ok {
				continue
			}
			if !slices.Contains(allowed, name) {
				bad = append(bad, name)
			}
		}
		if len(bad) > 0 {
			t.Errorf("internal/%s imports %v; its layer allows only %v", d.Name(), bad, allowed)
		}
	}
	if seen != len(layers) {
		t.Errorf("layers lists %d packages, internal/ has %d of them", len(layers), seen)
	}
}
