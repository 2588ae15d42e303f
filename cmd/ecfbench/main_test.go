package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/results"
)

// TestUsageErrorsOpenNoFile runs command lines that must not run a
// render, crossed with each flag that names an output file: the usage
// error (or the request for the list) has to come back with its exit
// code and the file still absent. Before the names were resolved first,
// a mistyped -exp exited 2 leaving its output file empty, and the
// corrected rerun died on "already exists; use -force".
func TestUsageErrorsOpenNoFile(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int // for an artifact the mode reads; -trace-out and -decisions-out are read only by a trace (2)
	}{
		{"unknown exp", []string{"-exp", "nosuch"}, 2},
		{"unknown scale", []string{"-exp", "fig1", "-scale", "bogus"}, 2},
		{"unknown scale, all", []string{"-exp", "all", "-scale", "bogus"}, 2},
		{"list", []string{"-list"}, 0},
		{"list with exp", []string{"-list", "-exp", "fig1"}, 0},
		{"empty exp", nil, 2},
	}
	for _, tc := range cases {
		for _, artifact := range []string{"cpuprofile", "memprofile", "trace-out", "decisions-out"} {
			t.Run(tc.name+"/"+artifact, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out")
				want := tc.code
				if artifact == "trace-out" || artifact == "decisions-out" {
					want = 2
				}
				var stdout, stderr bytes.Buffer
				if code := run(append([]string{"-" + artifact, path}, tc.args...), &stdout, &stderr); code != want {
					t.Errorf("exit %d, want %d; stderr:\n%s", code, want, stderr.String())
				}
				if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
					t.Errorf("-%s %s was opened (stat: %v)", artifact, path, statErr)
				}
			})
		}
	}
}

// TestModeTable covers every row of the mode × flag table, the value
// rules beside it, and the command lines that used to drop a flag
// silently: each exits 2, names the problem on stderr, and creates no
// file — not the profile or the store it names.
func TestModeTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // on stderr
	}{
		// One row per mode: a flag the mode does not read.
		{"join reads no -exp", []string{"-join", "127.0.0.1:1", "-exp", "all"}, "-exp does not apply to join mode"},
		{"cache-stats reads no -exp", []string{"-cache-stats", "-cache-dir", "$D/D", "-exp", "all"}, "-exp does not apply to cache-stats mode"},
		{"cache-prune reads no -merge", []string{"-cache-prune", "-cache-dir", "$D/D", "-merge"}, "-merge does not apply to cache-prune mode"},
		{"list reads no -older-than", []string{"-list", "-older-than", "1h"}, "flag provided but not defined: -older-than"},
		{"render reads no -dry-run", []string{"-exp", "table1", "-dry-run"}, "-dry-run does not apply to render mode"},
		{"two modes", []string{"-cache-stats", "-cache-prune", "-cache-dir", "$D/D"}, "-cache-prune does not apply to cache-stats mode"},
		{"trace reads no -exp", []string{"-exp", "fig9", "-trace-cell", "grid/ecf/14", "-trace-out", "$D/t.json"}, "-exp does not apply to trace mode"},
		{"trace-cell vs list", []string{"-list", "-trace-cell", "grid/ecf/14", "-trace-out", "$D/t.json"}, "-list does not apply to trace mode"},
		{"trace-cell vs merge", []string{"-cache-dir", "$D/D", "-merge", "-trace-cell", "grid/ecf/14", "-trace-out", "$D/t.json"}, "-cache-dir does not apply to trace mode"},
		{"decisions-out needs trace-cell", []string{"-exp", "fig9", "-decisions-out", "$D/d.txt"}, "-decisions-out does not apply to render mode"},

		// Flags that were once accepted and silently ignored.
		{"stats dry-run", []string{"-cache-stats", "-cache-dir", "$D/D", "-dry-run"}, "-dry-run does not apply to cache-stats mode"},
		{"stats older-than", []string{"-cache-stats", "-cache-dir", "$D/D", "-older-than", "1h"}, "flag provided but not defined: -older-than"},
		{"prune profiles", []string{"-cache-prune", "-cache-dir", "$D/D", "-dry-run", "-cpuprofile", "$D/p.pprof", "-memprofile", "$D/m.pprof"}, "-cpuprofile does not apply to cache-prune mode"},
		// Prune keeps what a catalog run at either scale reads.
		{"prune reads no -scale", []string{"-cache-prune", "-cache-dir", "$D/D", "-scale", "quick"}, "-scale does not apply to cache-prune mode"},
		{"render worker-id", []string{"-exp", "table1", "-worker-id", "ghost"}, "-worker-id does not apply to render mode"},
		{"join older-than", []string{"-join", "127.0.0.1:1", "-older-than", "1h"}, "flag provided but not defined: -older-than"},
		{"join dry-run", []string{"-join", "127.0.0.1:1", "-dry-run"}, "-dry-run does not apply to join mode"},

		// A positional argument would end flag parsing.
		{"stray argument", []string{"-exp", "table1", "-scale", "quick", "stray", "-cpuprofile", "$D/p.pprof"}, `unexpected argument "stray"`},

		// The value rules.
		{"stats needs cache-dir", []string{"-cache-stats"}, "-cache-stats requires -cache-dir"},
		{"prune needs cache-dir", []string{"-cache-prune"}, "-cache-prune requires -cache-dir"},
		{"shard needs cache-dir", []string{"-exp", "table1", "-shard", "0/2"}, "-shard requires -cache-dir"},
		{"merge needs cache-dir", []string{"-exp", "table1", "-merge"}, "-merge requires -cache-dir"},
		{"shard vs merge", []string{"-exp", "table1", "-cache-dir", "$D/D", "-shard", "0/2", "-merge"}, "mutually exclusive"},
		{"no-cache vs merge", []string{"-exp", "table1", "-cache-dir", "$D/D", "-no-cache", "-merge"}, "-no-cache cannot be combined"},
		{"bad shard", []string{"-exp", "table1", "-cache-dir", "$D/D", "-shard", "2/2"}, `shard "2/2"`},
		{"negative j", []string{"-exp", "table2", "-scale", "quick", "-no-cache", "-j", "-5", "-memprofile", "$D/m.pprof"}, "-j -5: want a worker count >= 0"},
		{"join negative j", []string{"-join", "127.0.0.1:1", "-j", "-1", "-cpuprofile", "$D/p.pprof"}, "-j -1: want a worker count >= 0"},
		{"trace-cell needs trace-out", []string{"-trace-cell", "grid/ecf/14"}, "-trace-cell requires -trace-out"},
		{"bad trace-cell", []string{"-trace-cell", "grid/ecf/x", "-trace-out", "$D/t.json"}, "not a non-negative integer"},
		{"unknown trace family", []string{"-trace-cell", "grid/nosuch/0", "-trace-out", "$D/t.json", "-scale", "quick"}, `no cell family "grid/nosuch" runs at this scale`},
		{"trace index out of range", []string{"-trace-cell", "grid/ecf/36", "-trace-out", "$D/t.json", "-decisions-out", "$D/d.txt", "-scale", "quick"}, `cell family "grid/ecf" has 36 cells`},
		{"unknown flag", []string{"-exp", "table1", "-nosuch"}, "flag provided but not defined: -nosuch"},
		// A cell is bounded by its event budget; the wall-clock flag is gone.
		{"negative cell-timeout", []string{"-exp", "table1", "-cell-timeout", "-1s"}, "flag provided but not defined: -cell-timeout"},
		// A record's key is its whole identity, so prune ages nothing out.
		{"negative older-than", []string{"-cache-prune", "-cache-dir", "$D/D", "-older-than", "-1h"}, "flag provided but not defined: -older-than"},
		{"malformed duration", []string{"-cache-prune", "-cache-dir", "$D/D", "-older-than", "soon"}, "flag provided but not defined: -older-than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.Replace(a, "$D", dir, 1)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not say %q:\n%s", tc.want, stderr.String())
			}
			if entries, _ := os.ReadDir(dir); len(entries) > 0 {
				t.Errorf("created %s", entries[0].Name())
			}
		})
	}
}

// TestModesRunWhatTheyRead is the other side of the table: each mode
// accepts the flags its row names.
func TestModesRunWhatTheyRead(t *testing.T) {
	store := t.TempDir()
	for _, args := range [][]string{
		{"-list", "-exp", "fig1", "-scale", "quick", "-j", "2"},
		{"-trace-cell", "table2/0", "-trace-out", filepath.Join(store, "t.json"), "-decisions-out", filepath.Join(store, "d.txt"), "-scale", "quick", "-force"},
		{"-cache-stats", "-cache-dir", store},
		{"-cache-prune", "-cache-dir", store, "-dry-run"},
		{"-exp", "table1", "-scale", "quick", "-j", "1", "-cache-dir", store, "-shard", "0/1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("%q: exit %d, want 0; stderr:\n%s", args, code, stderr.String())
		}
	}
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, io.Discard, &stderr); code != 0 || !strings.Contains(stderr.String(), "-cache-dir") {
		t.Errorf("-h: exit %d, want 0 and the flag list; stderr:\n%s", code, stderr.String())
	}
}

func TestParseShard(t *testing.T) {
	good := map[string][2]int{
		"0/2": {0, 2},
		"1/2": {1, 2},
		"4/5": {4, 5},
		"0/1": {0, 1},
	}
	for in, want := range good {
		i, n, err := parseShard(in)
		if err != nil || [2]int{i, n} != want {
			t.Fatalf("parseShard(%q) = %d, %d, %v; want %v", in, i, n, err, want)
		}
	}
	for _, in := range []string{"", "1", "2/2", "-1/2", "a/b", "1/0", "1/-2"} {
		if _, _, err := parseShard(in); err == nil {
			t.Fatalf("parseShard(%q) succeeded, want error", in)
		}
	}
}

func TestShardCovers(t *testing.T) {
	store := t.TempDir()
	claims := func(shard string) func(results.Key) bool {
		c, err := parse([]string{"-exp", "table1", "-cache-dir", store, "-shard", shard}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return c.claims
	}
	if claims("0/1") != nil {
		t.Fatal("shard 0/1 must claim every cell (nil predicate)")
	}
	shard := claims("1/3")
	for cell := 0; cell < 9; cell++ {
		if shard(results.Key{Cell: cell}) != (cell%3 == 1) {
			t.Fatalf("shard 1/3 claims cell %d wrongly", cell)
		}
	}
}

// cells is where a session's cells came from: served, computed.
type cells [2]int64

// render runs one command line in-process the way run does, and
// returns its stdout and where the session's cells came from.
func render(t *testing.T, args ...string) (string, cells) {
	t.Helper()
	c, err := parse(args, io.Discard)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	var stdout bytes.Buffer
	if err := c.run(&stdout, io.Discard); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	hits, computed := c.ses.Stats()
	return stdout.String(), cells{hits, computed}
}

// TestStoreServesWarmAndSharedCells is the results contract end to end
// on single experiments: a warm rerun serves every cell from the store
// and prints the same bytes, experiments that share a family serve each
// other's records, and -no-cache neither reads nor creates -cache-dir.
func TestStoreServesWarmAndSharedCells(t *testing.T) {
	store := filepath.Join(t.TempDir(), "cells")
	cold, got := render(t, "-exp", "table2", "-scale", "quick", "-cache-dir", store)
	if want := (cells{0, 12}); got != want {
		t.Errorf("table2 cold: %v, want %v", got, want)
	}
	warm, got := render(t, "-exp", "table2", "-scale", "quick", "-cache-dir", store)
	if want := (cells{12, 0}); got != want {
		t.Errorf("table2 warm: %v, want %v", got, want)
	}
	if warm != cold {
		t.Errorf("warm stdout differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}

	// Figures 5 and 13 read the default-scheduler cell of each x-8.6
	// pair's "ooo" family, and Figure 14 fills two of the four.
	ooo := filepath.Join(t.TempDir(), "ooo")
	render(t, "-exp", "fig14", "-scale", "quick", "-cache-dir", ooo)
	if _, got := render(t, "-exp", "fig13", "-scale", "quick", "-cache-dir", ooo); got != (cells{2, 2}) {
		t.Errorf("fig13 after fig14: %v, want 2 store hits + 2 computed", got)
	}
	if _, got := render(t, "-exp", "fig5", "-scale", "quick", "-cache-dir", ooo); got != (cells{4, 0}) {
		t.Errorf("fig5 after fig13: %v, want 4 store hits", got)
	}

	unused := filepath.Join(t.TempDir(), "unused")
	if _, got := render(t, "-exp", "fig7", "-scale", "quick", "-no-cache", "-cache-dir", unused); got != (cells{0, 36}) {
		t.Errorf("fig7 -no-cache: %v, want 36 computed", got)
	}
	if _, err := os.Stat(unused); !os.IsNotExist(err) {
		t.Errorf("-no-cache created -cache-dir (stat: %v)", err)
	}
}

// TestPruneKeepsBothScales: a store shared by sweeps at both scales
// keeps what a quick run reads through a prune, so the warm quick rerun
// is all hits.
func TestPruneKeepsBothScales(t *testing.T) {
	store := filepath.Join(t.TempDir(), "cells")
	cold, _ := render(t, "-exp", "fig1", "-scale", "quick", "-cache-dir", store)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cache-prune", "-cache-dir", store}, &stdout, &stderr); code != 0 {
		t.Fatalf("prune: exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "nothing to prune") {
		t.Errorf("prune deleted records a quick run reads:\n%s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-exp", "fig1", "-scale", "quick", "-cache-dir", store}, &stdout, &stderr); code != 0 {
		t.Fatalf("warm run: exit %d; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "(100% hit)") {
		t.Errorf("warm quick run after prune is not all hits:\n%s", stderr.String())
	}
	if stdout.String() != cold {
		t.Errorf("warm stdout differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, stdout.String())
	}
}

// TestMergeSuppressesEveryReaderOfAHole: a merge over a quick store
// missing one default-scheduler grid cell prints no block of any
// experiment that reads it — Figures 2, 6, 7 and 9 — prints every other
// block, exits 1, and names exactly that one cell in its hole report.
func TestMergeSuppressesEveryReaderOfAHole(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick catalog")
	}
	store := filepath.Join(t.TempDir(), "cells")
	want, _ := render(t, "-exp", "all", "-scale", "quick", "-cache-dir", store)
	hole, _ := filepath.Glob(filepath.Join(store, "grid_minrtt", "c0007-*.json"))
	if len(hole) != 1 {
		t.Fatalf("the quick store holds %d records of grid/minrtt cell 7, want 1", len(hole))
	}
	if err := os.Remove(hole[0]); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all", "-scale", "quick", "-cache-dir", store, "-merge"}, &stdout, &stderr); code != 1 {
		t.Fatalf("merge with a hole: exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	got := stdout.String()
	for _, name := range []string{"fig2", "fig6", "fig7", "fig9"} {
		if strings.Contains(got, "=== "+name+" (") {
			t.Errorf("%s reads the missing cell, yet its block is printed", name)
		}
	}
	for _, block := range strings.SplitAfter(want, "\n=== ") {
		if name := strings.Fields(strings.TrimPrefix(block, "=== "))[0]; !slices.Contains([]string{"fig2", "fig6", "fig7", "fig9"}, name) &&
			!strings.Contains(got, strings.TrimPrefix(block, "=== ")) {
			t.Errorf("%s reads no missing cell, yet its block is not printed as a complete merge prints it", name)
		}
	}
	if !strings.Contains(stderr.String(), "merge incomplete: 1 cells missing across 1 record families:") ||
		!strings.Contains(stderr.String(), "grid/minrtt (schema") || !strings.Contains(stderr.String(), ": 1 cells: 7\n") {
		t.Errorf("the hole report does not name exactly grid/minrtt cell 7:\n%s", stderr.String())
	}
}

// TestTracedRunExportsArtifacts is the flight recorder end to end: a
// trace of one cell writes the Chrome trace and the decision log and
// renders nothing, and each artifact holds what its reader keys on.
func TestTracedRunExportsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tracePath, decsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "decisions.txt")
	var traced, stderr bytes.Buffer
	if code := run([]string{"-trace-cell", "grid/ecf/14", "-trace-out", tracePath, "-decisions-out", decsPath, "-scale", "quick"}, &traced, &stderr); code != 0 {
		t.Fatalf("trace: exit %d; stderr:\n%s", code, stderr.String())
	}
	if traced.Len() != 0 || !strings.Contains(stderr.String(), "trace: cell grid/ecf/14 — ") {
		t.Errorf("trace printed %d bytes on stdout, want none, and stderr lacks its trace: line:\n%s", traced.Len(), stderr.String())
	}
	read := func(path string) []byte {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(read(tracePath), &trace); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(trace.TraceEvents) <= 1000 {
		t.Errorf("trace holds %d events, want more than 1000", len(trace.TraceEvents))
	}
	last := -1.0
	for i, ev := range trace.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("trace event %d has no ph: %v", i, ev)
		}
		if ph == "M" {
			continue // metadata carries no time
		}
		ts, ok := ev["ts"].(float64)
		if _, hasPid := ev["pid"].(float64); !ok || !hasPid {
			t.Fatalf("trace event %d lacks a numeric ts or pid: %v", i, ev)
		}
		if ts < last {
			t.Fatalf("trace event %d at ts %v follows ts %v: not sorted", i, ts, last)
		}
		last = ts
	}

	if decs := string(read(decsPath)); !strings.Contains(decs, "== transfer") || !strings.Contains(decs, "eq1") {
		t.Errorf("decision log lacks a transfer header or an Eq. 1 line:\n%.500s", decs)
	}
}

// TestStderrSummary is the run's summary end to end: a cold quick fig9
// render reads and computes its 144 cells, its kinds: line splits the
// queue dispatches its run: line counts, most frequent kind first, and
// its last three lines — kinds:, run: and queue: — are the same at -j 1
// and -j 2 but for the wall clock.
func TestStderrSummary(t *testing.T) {
	wall := regexp.MustCompile(` in [^ ]+: `)
	summary := func(jobs string) [3]string {
		t.Helper()
		var stderr bytes.Buffer
		if code := run([]string{"-exp", "fig9", "-scale", "quick", "-no-cache", "-j", jobs}, io.Discard, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d; stderr:\n%s", jobs, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("-j %s: stderr has %d lines, want a summary of 3:\n%s", jobs, len(lines), stderr.String())
		}
		var last [3]string
		copy(last[:], lines[len(lines)-3:])
		for i, prefix := range []string{"kinds: ", "run: ", "queue: depth max "} {
			if !strings.HasPrefix(last[i], prefix) {
				t.Fatalf("-j %s: summary line %d is %q, want it to start %q", jobs, i, last[i], prefix)
			}
		}
		last[1] = wall.ReplaceAllString(last[1], " in WALL: ")
		return last
	}
	one := summary("1")
	kinds, runLine := one[0], one[1]
	if !strings.HasPrefix(runLine, "run: 144 reads of 144 cells in WALL: 0 hits, 144 computed (0% hit), ") {
		t.Errorf("run line = %q, want 144 reads of 144 cells, 144 computed", runLine)
	}
	m := regexp.MustCompile(`, (\d+) events \((\d+) coalesced\), `).FindStringSubmatch(runLine)
	if m == nil {
		t.Fatalf("run line %q has no event count", runLine)
	}
	events, _ := strconv.ParseUint(m[1], 10, 64)
	coalesced, _ := strconv.ParseUint(m[2], 10, 64)
	var sum, prev uint64
	for i, entry := range strings.Split(strings.TrimPrefix(kinds, "kinds: "), ", ") {
		name, count, _ := strings.Cut(entry, " ")
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil || name == "" {
			t.Fatalf("kinds entry %q is not \"name count\"", entry)
		}
		if i > 0 && n > prev {
			t.Errorf("kinds entry %q follows a smaller count %d", entry, prev)
		}
		sum, prev = sum+n, n
	}
	if sum != events-coalesced || !strings.Contains(kinds, "netsim.Link.drain ") {
		t.Errorf("kinds sum to %d, want %d events - %d coalesced, with netsim.Link.drain among them: %s", sum, events, coalesced, kinds)
	}
	if two := summary("2"); two != one {
		t.Errorf("summary differs between -j 1 and -j 2:\n%s\n%s", strings.Join(one[:], "\n"), strings.Join(two[:], "\n"))
	}
}

// TestDebugObs checks the server a render runs at -debug-addr: the
// address run printed refuses connections once run returns, and the
// counter snapshot its handler serves after a table3 render says the
// process's queue dispatches by kind sum to its processed events, and
// its links drained and delivered packets.
func TestDebugObs(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-exp", "table3", "-scale", "quick", "-no-cache", "-debug-addr", "127.0.0.1:0"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	addr := regexp.MustCompile(`debug server on http://([^/ ]+)/debug/pprof/`).FindStringSubmatch(stderr.String())
	if addr == nil {
		t.Fatalf("stderr names no debug server:\n%s", stderr.String())
	}
	if conn, err := net.Dial("tcp", addr[1]); err == nil {
		conn.Close()
		t.Errorf("the debug server at %s still accepts connections after run returned", addr[1])
	}
	resp := httptest.NewRecorder()
	debugMux().ServeHTTP(resp, httptest.NewRequest("GET", "/debug/obs", nil))
	var snap struct {
		EventsProcessed  uint64            `json:"events_processed"`
		EventsByKind     map[string]uint64 `json:"events_by_kind"`
		PacketsDelivered int64             `json:"packets_delivered"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/obs: %v", err)
	}
	var byKind uint64
	for _, n := range snap.EventsByKind {
		byKind += n
	}
	if byKind != snap.EventsProcessed || snap.EventsByKind["netsim.Link.drain"] == 0 || snap.PacketsDelivered <= 0 {
		t.Errorf("events_by_kind sums to %d of %d processed, netsim.Link.drain %d, packets_delivered %d; want the sum equal and both counts above 0",
			byKind, snap.EventsProcessed, snap.EventsByKind["netsim.Link.drain"], snap.PacketsDelivered)
	}
}

// TestClobberGuard: an existing profile is refused up front (exit 1,
// before simulating) and overwritten under -force.
func TestClobberGuard(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range []string{"cpuprofile", "memprofile"} {
		path := filepath.Join(dir, flag)
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"-exp", "table1", "-scale", "quick", "-" + flag, path}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "use -force") {
			t.Errorf("-%s over an existing file: exit %d, want 1 and a -force hint; stderr:\n%s", flag, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-%s: the refused run printed %q", flag, stdout.String())
		}
		if code := run(append(args, "-force"), io.Discard, &stderr); code != 0 {
			t.Errorf("-%s -force: exit %d; stderr:\n%s", flag, code, stderr.String())
		}
		if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
			t.Fatalf("-%s -force left %d bytes (%v)", flag, len(data), err)
		}
	}
}
