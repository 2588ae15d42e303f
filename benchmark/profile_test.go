package main

import (
	"math"
	"os"
	"testing"
)

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":                     "sim",
		"repro/internal/netsim.init.0.func1":                    "netsim",
		"repro/internal/ring.(*Reorder[go.shape.int64]).Insert": "ring",
		"repro/internal/ring.(*Ring[go.shape.struct { repro/internal/netsim.pkt repro/internal/netsim.Packet }]).At (inline)": "ring",
		"repro/internal/experiments.runCells[go.shape.struct { Def repro/internal/metrics.Summary }]":                         "experiments",
		"encoding/json.(*decodeState).object":                         "json",
		"runtime.mallocgc":                                            "runtime",
		"runtime/internal/syscall.Syscall6":                           "runtime",
		"internal/runtime/atomic.(*UnsafePointer).StoreNoWB (inline)": "runtime",
		"internal/runtime/atomic.(*Pointer[go.shape.struct { runtime.lfnode }]).StoreNoWB (inline)": "runtime",
		"main.main": "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// testdata/pprof_top.txt is `go tool pprof -top -nodecount=100000` of a
// cold fig19 run: 670 ms of samples.
func TestFoldProfileFixture(t *testing.T) {
	top, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldProfile(string(top))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	for pkg, ms := range fixtureFlatMs {
		if got, want := shares[pkg], ms/670; math.Abs(got-want) > 1e-9 {
			t.Errorf("share of %s = %.4f, want %.4f (%v ms of 670)", pkg, got, want, ms)
		}
	}
}

func TestFoldProfileRejectsEmpty(t *testing.T) {
	if _, err := foldProfile("File: x\n      flat  flat%   sum%        cum   cum%\n"); err == nil {
		t.Error("a profile without samples folded without an error")
	}
}

// fixtureFlatMs is the fixture's flat time by package, added up by hand
// (awk over the flat and name columns).
var fixtureFlatMs = map[string]float64{
	"sim": 290, "tcp": 100, "mptcp": 80, "netsim": 50, "ring": 50, "trace": 50, "runtime": 30, "cc": 10, "sched": 10,
}
