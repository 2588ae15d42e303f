package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain makes the test binary ecfd itself when ECFD_ARGS is set (one
// argument per line), so a test can run main in a subprocess and
// observe its exit code.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("ECFD_ARGS"); ok {
		os.Args = []string{"ecfd"}
		if args != "" {
			os.Args = append(os.Args, strings.Split(args, "\n")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUsageExits: a command line ecfd cannot act on exits 2 with the
// problem on stderr, before the store is created or a port is bound.
func TestUsageExits(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // on stderr
	}{
		{"no subcommand", nil, "usage:"},
		{"unknown subcommand", []string{"launch"}, "usage:"},
		{"stray argument", []string{"serve", "-cache-dir", "$D/store", "-scale", "quick", "-addr", "127.0.0.1:0", "stray", "-exit-when-done"}, `unexpected argument "stray"`},
		{"status stray argument", []string{"status", "-addr", "127.0.0.1:1", "stray"}, `unexpected argument "stray"`},
		{"serve without -cache-dir", []string{"serve", "-scale", "quick"}, "serve requires -cache-dir"},
		{"unknown scale", []string{"serve", "-cache-dir", "$D/store", "-scale", "huge"}, `unknown scale "huge"`},
		{"unknown flag", []string{"serve", "-cache-dir", "$D/store", "-nosuch"}, "flag provided but not defined: -nosuch"},
		{"non-positive lease TTL", []string{"serve", "-cache-dir", "$D/store", "-lease-ttl", "-1s"}, "-lease-ttl must be positive"},
		{"empty claim batch", []string{"serve", "-cache-dir", "$D/store", "-claim-batch", "0"}, "-claim-batch must be at least 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0])
			cmd.Env = append(os.Environ(), "ECFD_ARGS="+strings.ReplaceAll(strings.Join(tc.args, "\n"), "$D", dir))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("ecfd %q: %v, want exit 2; stderr:\n%s", tc.args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr does not say %q:\n%s", tc.want, stderr.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
				t.Errorf("the store was created (stat: %v)", err)
			}
		})
	}
}
