package main

import (
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricAndWorkloadNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-] or longer than 64", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), layerDefs()...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, w := range (&harness{cfg: config{scale: "full", seed: 1}}).workloads() {
		check(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.name, len(w.why))
		}
	}
	if n := len(layerDefs()); n != 96 {
		t.Errorf("%d per-layer metrics, want 96", n)
	}
}

// Every catalog experiment is in exactly one of stream-cold / web-cold.
func TestCatalogSplit(t *testing.T) {
	stream, web := expNames(false), expNames(true)
	if len(stream) != 19 || len(web) != 6 || len(drivers) != 25 {
		t.Errorf("catalog split is %d + %d of %d, want 19 + 6 of 25", len(stream), len(web), len(drivers))
	}
	if got := shuffled(stream, 7); reflect.DeepEqual(got, stream) || !reflect.DeepEqual(got, shuffled(stream, 7)) || len(got) != len(stream) {
		t.Errorf("shuffled is not a seed-determined reordering: %v", got)
	}
}

// BENCHMARK.json names exactly what the harness prints: no metric named
// but never printed, none printed but unnamed.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command = %v, want %v", spec.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths = %v, want %v", spec.Paths, want)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", spec.RunSeconds, defaultSeconds)
	}

	type workloadLine struct{ name, why string }
	var gotW, wantW []workloadLine
	for _, w := range spec.Workloads {
		gotW = append(gotW, workloadLine{w.Name, w.Why})
	}
	for _, w := range (&harness{cfg: config{scale: "full", seed: 1}}).workloads() {
		wantW = append(wantW, workloadLine{w.name, w.why})
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads = %v\nharness has %v", gotW, wantW)
	}

	var gotE, gotL []metricDef
	for _, e := range spec.EndToEnd {
		gotE = append(gotE, metricDef{e.Name, e.Unit, e.Better, false})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if !reflect.DeepEqual(gotE, endToEndDefs) {
		t.Errorf("end_to_end = %v\nharness prints %v", gotE, endToEndDefs)
	}
	want := layerDefs()
	for i := range want {
		want[i].Exact = false // BENCHMARK.json's schema has no place for it
	}
	for _, l := range spec.PerLayer {
		gotL = append(gotL, metricDef{l.Name, l.Unit, l.Better, false})
	}
	if !reflect.DeepEqual(gotL, want) {
		t.Errorf("per_layer = %v\nharness prints %v", gotL, want)
	}
}
