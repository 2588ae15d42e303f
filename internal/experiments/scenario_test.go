package experiments

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/trace"
)

// TestFmtMbps pins every bandwidth label the catalog prints or names a
// family with, and the values whose tenths digit rounds up.
func TestFmtMbps(t *testing.T) {
	cases := map[float64]string{
		0.3: "0.3", 0.7: "0.7", 1.1: "1.1", 1.7: "1.7", 4.2: "4.2", 8.6: "8.6",
		1: "1", 2: "2", 3: "3", 4: "4", 5: "5", 6: "6", 7: "7", 8: "8", 9: "9", 10: "10",
		0.97: "1", 1.96: "2", 9.99: "10",
	}
	var axes []float64
	for _, vs := range [][]float64{trace.GridBandwidthsMbps, trace.WebBandwidthsMbps, trace.RandomChangeValuesMbps, figure5Pairs} {
		axes = append(axes, vs...)
	}
	for _, v := range axes {
		if _, ok := cases[v]; !ok {
			t.Errorf("catalog axis value %v has no case", v)
		}
	}
	for v, want := range cases {
		if got := fmtMbps(v); got != want {
			t.Errorf("fmtMbps(%v) = %q, want %q", v, got, want)
		}
	}
}

// perturbLeaves calls f once per leaf field of v (recursing into
// structs and arrays) with a copy of v in which that one field differs,
// and fails on any field kind a comparable, self-contained value must
// not have.
func perturbLeaves(t *testing.T, v reflect.Value, path string, f func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
		return
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), path+"["+string(rune('0'+i))+"]", f)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	defer v.Set(old)
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		t.Fatalf("%s is a %s: a scenario holds only plain comparable values", path, v.Kind())
	}
	f(path)
}

// TestScenarioKeysFollowContent: changing any one field of any one cell
// changes its family's key.
func TestScenarioKeysFollowContent(t *testing.T) {
	families := map[string][]Scenario{
		"grid":  gridFamily(NewPlan(Quick), "ecf", false).cells,
		"table": declaredCells(t, Quick, "table2"),
		"wget":  declaredCells(t, Quick, "fig19"),
		"page":  declaredCells(t, Quick, "fig23"),
	}
	for name, cells := range families {
		want := scaleKey[float64](cells)
		cells = append([]Scenario(nil), cells...)
		n := 0
		perturbLeaves(t, reflect.ValueOf(&cells[len(cells)-1]).Elem(), "Scenario", func(path string) {
			n++
			if scaleKey[float64](cells) == want {
				t.Errorf("%s family: changing %s of its last cell leaves its key", name, path)
			}
		})
		if n < 30 {
			t.Fatalf("%s family: only %d scenario fields perturbed", name, n)
		}
	}
}

// family returns the key and the cells of the plan's family of that
// name; ok is false when no planned experiment declared one.
func (p *Plan) family(name string) (spec results.Spec, cells []Scenario, ok bool) {
	f, ok := p.families[name].(interface {
		scenarios() (results.Spec, []Scenario)
	})
	if !ok {
		return spec, nil, false
	}
	spec, cells = f.scenarios()
	return spec, cells, true
}

// declaredCells returns the scenarios of the named family at the scale,
// which the catalog plan declares.
func declaredCells(t *testing.T, sc Scale, name string) []Scenario {
	t.Helper()
	_, cells, ok := NewPlan(sc, Catalog...).family(name)
	if !ok {
		t.Fatalf("the catalog declares no %q family", name)
	}
	return cells
}

// familyKeys plans the catalog at sc and returns the key of every family
// it reads, by name.
func familyKeys(sc Scale) map[string]results.Spec {
	keys := map[string]results.Spec{}
	for _, f := range EnumerateCells(sc) {
		keys[f.Spec.Experiment] = f.Spec
	}
	return keys
}

// TestScaleFieldsChangeExactlyTheirFamilies: a Scale field changes the
// keys of exactly the families whose scenarios read it, and the run
// policy fields change none.
func TestScaleFieldsChangeExactlyTheirFamilies(t *testing.T) {
	// Scale field → the families reading it, by name or, ending in "/",
	// by name prefix.
	readBy := map[string][]string{
		"VideoSec":        {"fig1", "sampled/", "ooo/", "fig22"},
		"GridVideoSec":    {"grid/", "fig15"},
		"RandomDurSec":    {"fig16"},
		"RandomScenarios": {"fig16"},
		"WebRuns":         {"fig18", "fig19", "web-browsing"},
		"WildWebRuns":     {"fig23"},
		"Workers":         nil,
		"Results":         nil,
	}
	base := familyKeys(Quick)
	st := reflect.TypeOf(Scale{})
	for i := 0; i < st.NumField(); i++ {
		field := st.Field(i).Name
		readers, ok := readBy[field]
		if !ok {
			t.Errorf("Scale.%s is new: list the families that read it", field)
			continue
		}
		sc := Quick
		switch v := reflect.ValueOf(&sc).Elem().Field(i); field {
		case "Results":
			sc.Results = &results.Session{Merge: true}
		default:
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(v.Float() + 1)
			case reflect.Int:
				v.SetInt(v.Int() + 1)
			default:
				t.Fatalf("Scale.%s is a %s", field, v.Kind())
			}
		}
		got := familyKeys(sc)
		var changed, want []string
		for name, spec := range base {
			if got[name] != spec {
				changed = append(changed, name)
			}
			for _, p := range readers {
				if name == p || strings.HasSuffix(p, "/") && strings.HasPrefix(name, p) {
					want = append(want, name)
					break
				}
			}
		}
		sort.Strings(changed)
		sort.Strings(want)
		if len(got) != len(base) || !reflect.DeepEqual(changed, want) {
			t.Errorf("Scale.%s changes the keys of %v (%d families), want %v (%d)", field, changed, len(got), want, len(base))
		}
	}
}

// TestNoScenarioSimulatedTwice: across the quick and the full catalog,
// no two cell keys simulate an equal scenario — a family that repeats
// another's simulation must read that family's cells instead.
func TestNoScenarioSimulatedTwice(t *testing.T) {
	for _, sc := range []Scale{Quick, Full} {
		p := NewPlan(sc, Catalog...)
		seen := map[Scenario]results.Key{}
		for _, f := range EnumerateCells(sc) {
			spec, cells, ok := p.family(f.Spec.Experiment)
			if !ok || spec != f.Spec {
				t.Fatalf("enumerated family %+v is not the catalog plan's (%+v)", f.Spec, spec)
			}
			for i := 0; i < f.Cells; i++ {
				sims := []Scenario{cells[i]}
				if cells[i].Versus != "" {
					one := cells[i]
					one.Versus = ""
					sims = []Scenario{one, cells[i].versus()}
				}
				for _, s := range sims {
					k := f.Spec.Key(i)
					if prev, dup := seen[s]; dup && prev != k {
						t.Errorf("cell %d of %q simulates what cell %d of %q does: %+v", i, k.Experiment, prev.Cell, prev.Experiment, s)
					}
					seen[s] = k
				}
			}
		}
	}
}
