package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseArgs resets every ecfbench flag to its default and parses args,
// as a fresh process would.
func parseArgs(t *testing.T, args ...string) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			if err := f.Value.Set(f.DefValue); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
}

// TestUsageErrorsOpenNoFile drives startRun — the step of main that
// both resolves -exp/-scale and opens every output file — with command
// lines that must not run, crossed with each flag that names an output
// file: the usage error (or the request for the list) has to come back
// with the file still absent. Before the names were resolved first,
// `-exp nosuch -report-json r.json` exited 2 leaving an empty r.json,
// and the corrected rerun died on "already exists; use -force".
func TestUsageErrorsOpenNoFile(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty: the list is requested, no error
	}{
		{"unknown exp", []string{"-exp", "nosuch"}, `unknown experiment "nosuch"`},
		{"unknown scale", []string{"-exp", "fig1", "-scale", "bogus"}, `unknown scale "bogus"`},
		{"unknown scale, all", []string{"-exp", "all", "-scale", "bogus"}, `unknown scale "bogus"`},
		{"list", []string{"-list"}, ""},
		{"list with exp", []string{"-list", "-exp", "fig1"}, ""},
		{"empty exp", nil, ""},
	}
	for _, tc := range cases {
		for _, artifact := range []string{"cpuprofile", "memprofile", "trace-out", "decisions-out", "report-json"} {
			t.Run(tc.name+"/"+artifact, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "out")
				parseArgs(t, append([]string{"-" + artifact, path}, tc.args...)...)
				exps, _, _, err := startRun()
				if exps != nil {
					t.Errorf("resolved %d experiments to run", len(exps))
				}
				switch {
				case tc.wantErr == "" && err != nil:
					t.Errorf("err = %v, want a request for the list", err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Errorf("err = %v, want %q", err, tc.wantErr)
				}
				if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
					t.Errorf("-%s %s was opened (stat: %v)", artifact, path, statErr)
				}
			})
		}
	}
}
