package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment says which host and which code a set of numbers came
// from. It is printed with every result and written into layers.json.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"git_commit"`
	CalibNs    float64 `json:"host_calib_ns"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      string  `json:"scale"`
	SetupReps  int     `json:"setup_reps"`
	MinIters   int     `json:"min_iterations"`
}

func captureEnvironment(root string, cfg config) environment {
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(root),
		CalibNs:    calibrate(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		SetupReps:  cfg.setupReps,
		MinIters:   cfg.minIters,
	}
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "host: %d cpus (GOMAXPROCS %d), %s, %s, commit %s, host.calib_ns %.4f\n",
		e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.GoVersion, e.Commit, e.CalibNs)
	fmt.Fprintf(w, "run:  seed %d, scale %s, %d s timed per workload (at least %d iterations), %d set-ups\n",
		e.Seed, e.Scale, e.Seconds, e.MinIters, e.SetupReps)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown cpu"
}

// gitCommit names the commit the numbers belong to; the driver's
// checkout is not a git repository, and there it is "unknown".
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

var calibSink uint64

// calibrate times a fixed pure-CPU kernel (a 64-bit xorshift-multiply
// chain, no memory traffic) and returns nanoseconds per step, the best
// of five repetitions. Dividing a timing by it gives a number that
// compares across hosts.
func calibrate() float64 {
	const steps = 20_000_000
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		x := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < steps; i++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			x *= 0x2545f4914f6cdd1d
		}
		if d := time.Since(start); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best.Nanoseconds()) / steps
}
