package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchSpec is BENCHMARK.json at the repository root: the contract the
// driver reads. The harness reads the bounds from it for -selfcheck,
// and names_test.go keeps its names equal to what the harness prints.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// tracedChild runs the traced run in a process of its own, as the
// driver does, and returns the metrics of its result line. A second
// traced run inside this process would read layer counters the first
// one had already advanced.
func (h *harness) tracedChild() (map[string]measured, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-trace", "1", "-seed", strconv.FormatUint(h.cfg.seed, 10)}
	if h.cfg.scale == "quick" {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = h.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line struct {
		Correct bool                `json:"correct"`
		Metrics map[string]measured `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("traced run's result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("traced run reported failures:\n%s", out)
	}
	return line.Metrics, nil
}

// selfcheck measures this build twice and compares the two readings
// with the benchmark's own bounds: two complete timed sets, interleaved
// workload by workload (A1 B1 A2 B2 ..., so drift of the host lands on
// both sets), then two traced runs. Every end-to-end gap must stay
// within its bound and every exact per-layer metric must be equal. The
// gaps it prints are what BENCHMARK.json's bounds were set from.
func (h *harness) selfcheck() int {
	spec, err := loadSpec(h.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	a, b := h.workloads(), h.workloads()
	breaches := 0
	var report bytes.Buffer
	for i := range a {
		ra, rb := h.runWorkload(a[i]), h.runWorkload(b[i])
		ra.print(os.Stdout, endToEndDefs)
		rb.print(os.Stdout, endToEndDefs)
		breaches += ra.Failed + rb.Failed
		for _, e := range spec.EndToEnd {
			va, vb := ra.Metrics[e.Name].Value, rb.Metrics[e.Name].Value
			gap := relGap(va, vb)
			verdict := "ok"
			if gap > e.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(&report, "  %-13s %-12s %12.6g %12.6g  gap %.4f  bound %.2f  %s\n", a[i].name, e.Name, va, vb, gap, e.Bound, verdict)
		}
	}
	fmt.Printf("\nselfcheck: two sets of this build, end to end\n%s", report.String())

	ta, err := h.tracedChild()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tb, err := h.tracedChild()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("\nselfcheck: two traced runs of this build, per layer")
	for _, d := range layerDefs() {
		va, vb := ta[d.Name].Value, tb[d.Name].Value
		verdict := ""
		if d.Exact {
			verdict = "exact, equal"
			if va != vb {
				verdict = "exact, DIFFERS"
				breaches++
			}
		}
		fmt.Printf("  %-34s %14.6g %14.6g  gap %.4f  %s\n", d.Name, va, vb, relGap(va, vb), verdict)
	}
	if breaches > 0 {
		fmt.Printf("\nselfcheck: %d breaches\n", breaches)
		return 1
	}
	fmt.Println("\nselfcheck: passed")
	return 0
}
