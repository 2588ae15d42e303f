package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// pprofTop renders a CPU profile as `go tool pprof -top` text, every
// node included. The profile carries its own symbols, so no binary is
// named.
func pprofTop(profilePath string) (string, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", profilePath).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -top %s: %w", profilePath, err)
	}
	return string(out), nil
}

// foldProfile sums the flat (self) time of `pprof -top` text by package
// and returns each package's share of the total: the last element of
// the import path, with the runtime and its internal packages folded
// into "runtime". This is a layer's self time inside calls the harness
// cannot split from outside.
func foldProfile(top string) (map[string]float64, error) {
	flat := make(map[string]time.Duration)
	var total time.Duration
	sc := bufio.NewScanner(strings.NewReader(top))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := parseFlat(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		flat[pkgOf(strings.Join(f[5:], " "))] += d
		total += d
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top text holds no samples")
	}
	shares := make(map[string]float64, len(flat))
	for pkg, d := range flat {
		shares[pkg] = float64(d) / float64(total)
	}
	return shares, nil
}

func parseFlat(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// pkgOf maps a profile's function name to the package it is folded
// into. Type arguments and receivers are cut first: they contain dots
// and slashes of their own.
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	path := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		path = fn[:slash+1+dot]
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	return path[strings.LastIndex(path, "/")+1:]
}
