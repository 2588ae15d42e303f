package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/sim"
)

// recordJSON runs cell i of the family — observed by rec when it is
// non-nil — and returns the JSON of the record the cell keeps.
func (f *family[T]) recordJSON(i int, rec *obs.CellRecorder) ([]byte, error) {
	out := f.cells[i].run((*core.Network).RunQuiet, rec)
	defer out.release()
	return json.Marshal(f.record(f.cells[i], out))
}

// TestTraceCellDoesNotChangeOutput: for one cell of each workload kind,
// the record a cell keeps is byte-identical with and without a recorder
// observing its networks — the recorder observes, it never participates.
// Every ring must also have caught something, or the equality is
// vacuous; only the bulk cell, a single path under wifi-only, makes no
// scheduler decision to record.
func TestTraceCellDoesNotChangeOutput(t *testing.T) {
	p := NewPlan(Quick, Catalog...)
	for _, tc := range []struct {
		kind, family string
		cell         int
		decides      bool
	}{
		{"stream", "grid/ecf", 14, true},
		{"paired wget", "fig19", 37, true},
		{"page", "web-browsing", 3, true},
		{"bulk", "table2", 10, false},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			fam, ok := p.families[tc.family].(interface {
				recordJSON(int, *obs.CellRecorder) ([]byte, error)
			})
			if !ok {
				t.Fatalf("no quick-scale family %q", tc.family)
			}
			plain, err := fam.recordJSON(tc.cell, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewCellRecorder(tc.family, tc.cell)
			traced, err := fam.recordJSON(tc.cell, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain, traced) {
				t.Errorf("%s/%d keeps another record under a recorder:\n--- untraced ---\n%.500s\n--- traced ---\n%.500s", tc.family, tc.cell, plain, traced)
			}
			if rec.Flight.Total() == 0 || rec.Packets.Total() == 0 || rec.Subflows.Total() == 0 || (rec.Decisions.Total() > 0) != tc.decides {
				t.Errorf("recorder caught flight=%d packets=%d subflows=%d decisions=%d; want every ring but decisions non-empty, and decisions only if the scheduler decides (%v)",
					rec.Flight.Total(), rec.Packets.Total(), rec.Subflows.Total(), rec.Decisions.Total(), tc.decides)
			}
		})
	}
}

// chromeTrace exports rec as Chrome trace-event JSON.
func chromeTrace(t *testing.T, rec *obs.CellRecorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	kindName := func(k uint8) string { return sim.KindName(sim.EventKind(k)) }
	if err := rec.WriteChromeTrace(&buf, kindName); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return buf.Bytes()
}

// TestDriverTraceExportsValidChromeTrace traces a catalog cell and
// validates the exported trace against the Chrome trace-event schema: a
// traceEvents array wrapped in an object, ph/ts/pid on every timed
// event, and non-decreasing timestamps.
func TestDriverTraceExportsValidChromeTrace(t *testing.T) {
	rec, err := Trace(Quick, "table2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Experiment != "table2" || rec.Cell != 1 {
		t.Fatalf("recorder names cell %s/%d, want table2/1", rec.Experiment, rec.Cell)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeTrace(t, rec), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("only %d trace events for a full simulated cell; expected hundreds", len(doc.TraceEvents))
	}
	last := -1.0
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("traceEvents[%d] has no ph", i)
		}
		if ph == "M" {
			continue
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			t.Fatalf("traceEvents[%d] has no numeric ts", i)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("traceEvents[%d] has no pid", i)
		}
		if ts < last {
			t.Fatalf("traceEvents[%d].ts = %v decreases (prev %v)", i, ts, last)
		}
		last = ts
	}
}

// TestTraceDependsOnTheCellAlone: tracing a cell twice in one process,
// with a cell of another workload run in between on the same pooled
// networks, exports byte-identical Chrome traces; and those bytes, with
// the cell's decision log, hash to the digests pinned below, so a hook
// that moves, drops or reorders a record fails across builds too.
func TestTraceDependsOnTheCellAlone(t *testing.T) {
	const (
		wantTrace     = "1e6b9cd1ee218aa69424390193526c8b0c3982f44b0af60cd9135c6bf52afe42"
		wantDecisions = "1e46e6d5862cf6ceee428112ce444d98675eb8433a9655c067327b52a83ff260"
	)
	trace := func() (chrome, decisions []byte) {
		rec, err := Trace(Quick, "grid/ecf", 14)
		if err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if err := rec.WriteDecisionLog(&log); err != nil {
			t.Fatalf("WriteDecisionLog: %v", err)
		}
		return chromeTrace(t, rec), log.Bytes()
	}
	first, decisions := trace()
	pageScenario("blest", 5, 5, 3).Run().release()
	if second, _ := trace(); !bytes.Equal(first, second) {
		t.Fatalf("grid/ecf/14 traced twice exports %d and %d bytes that differ", len(first), len(second))
	}
	for _, a := range []struct {
		name, want string
		b          []byte
	}{
		{"Chrome trace", wantTrace, first},
		{"decision log", wantDecisions, decisions},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(a.b)); got != a.want {
			t.Errorf("grid/ecf/14's %s at quick scale hashes to %s, want %s", a.name, got, a.want)
		}
	}
}

// TestTraceRejectsCellsTheCatalogDoesNotRun: an unknown family and an
// index out of range come back as errors with no recorder, naming what
// the catalog does run.
func TestTraceRejectsCellsTheCatalogDoesNotRun(t *testing.T) {
	for _, tc := range []struct {
		family string
		cell   int
		want   string
	}{
		{"grid/nosuch", 0, `no cell family "grid/nosuch" runs at this scale`},
		{"table2", 12, `cell family "table2" has 12 cells`},
		{"table2", -1, `cell family "table2" has 12 cells`},
	} {
		rec, err := Trace(Quick, tc.family, tc.cell)
		if rec != nil || err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Trace(%s/%d) = %v, %v; want no recorder and an error saying %q", tc.family, tc.cell, rec, err, tc.want)
		}
	}
}

// TestFailingCellKeepsItsTrace: a traced cell that fails returns what
// its recorder caught up to the failure, beside the *results.CellError
// a sweep reports for it.
func TestFailingCellKeepsItsTrace(t *testing.T) {
	k := results.Spec{Experiment: "test/runaway", Schema: 1, Scale: "t"}.Key(0)
	rec, err := traceCell(k, wgetScenario("ecf", 2, 7, 128<<10, 1, "test-runaway", 42), runaway)
	var ce *results.CellError
	if !errors.As(err, &ce) || ce.Key != k || !strings.Contains(err.Error(), "exhausted its event budget") {
		t.Fatalf("err = %v, want a *results.CellError naming %+v and the event budget", err, k)
	}
	if rec == nil || rec.Flight.Total() == 0 || rec.Packets.Total() == 0 {
		t.Fatalf("the failed cell's recorder caught nothing: %+v", rec)
	}
}

// TestEventTelemetryDeterministic pins the run-report counters the
// observability layer exposes per experiment: the event and delivery
// deltas of one sweep must not depend on the worker count (they feed a
// machine-readable report that is diffed across runs).
func TestEventTelemetryDeterministic(t *testing.T) {
	type counts struct {
		processed, coalesced uint64
		delivered            int64
	}
	measure := func(workers int) counts {
		p0, c0 := sim.TotalEvents()
		d0 := netsim.TotalDelivered()
		sc := Quick
		sc.Workers = workers
		_ = Table2(sc)
		p1, c1 := sim.TotalEvents()
		d1 := netsim.TotalDelivered()
		return counts{p1 - p0, c1 - c0, d1 - d0}
	}
	one := measure(1)
	eight := measure(8)
	if one != eight {
		t.Errorf("event telemetry depends on worker count: -j 1 %+v, -j 8 %+v", one, eight)
	}
	if one.processed == 0 || one.delivered == 0 {
		t.Errorf("telemetry deltas are vacuous: %+v", one)
	}
}
