package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func TestSummarize(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := summarize(in); got != (summary{Median: 4, Min: 1, Max: 5, N: 3}) {
		t.Errorf("odd count: %+v", got)
	}
	if !reflect.DeepEqual(in, []float64{5, 1, 4}) {
		t.Errorf("summarize reordered its input: %v", in)
	}
	if got := summarize([]float64{8, 2, 4, 6}); got != (summary{Median: 5, Min: 2, Max: 8, N: 4}) {
		t.Errorf("even count: %+v", got)
	}
	if got := summarize([]float64{7}); got != (summary{Median: 7, Min: 7, Max: 7, N: 1}) {
		t.Errorf("one sample: %+v", got)
	}
}

func TestRelGap(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{{2, 2.5, 0.25}, {2, 1.5, 0.25}, {0, 0, 0}, {0, 3, 1}} {
		if got := relGap(c.a, c.b); got != c.want {
			t.Errorf("relGap(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b overlaps a", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		{ID: 4, Parent: 0, Name: "d runs past the root", Start: 95, End: 120},
		{ID: 5, Parent: 1, Name: "grandchild", Start: 12, End: 17},
	}
	// root: 100 - (10..50 = 40) - (60..70 = 10) - (95..100 = 5) = 45.
	want := []int64{45, 15, 30, 10, 25, 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.do("child", func() { tr.do("grandchild", func() {}) })
	tr.add(tr.current(), "from another goroutine", tr.t0, tr.t0)
	tr.end(root)
	var got []int
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
		got = append(got, s.Parent)
	}
	if want := []int{-1, 0, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("parents = %v, want %v", got, want)
	}
}

// The driver reads exactly four keys from the result line.
func TestResultLineKeys(t *testing.T) {
	r := &result{Metrics: map[string]measured{"wall_s": {1.5, "s"}}}
	r.note(nil)
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.line()), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("result line keys = %v, want %v", keys, want)
	}
	if string(got["correct"]) != "true" || string(got["metrics"]) != `{"wall_s":{"value":1.5,"unit":"s"}}` {
		t.Errorf("result line = %s", r.line())
	}
}
