package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// harness holds what every mode needs: where the repository is, where
// the freshly built binaries and this run's scratch files live (both
// inside benchmark/, both git-ignored), and the blessed outputs.
type harness struct {
	cfg    config
	env    environment
	root   string // repository root
	bin    string // benchmark/.build
	tmp    string // benchmark/.tmp/run-<pid>, removed when the run ends
	golden golden
}

// goldenEntry is the blessed outcome of one experiment at one scale:
// the SHA-256 of `ecfbench -exp <name>` stdout, and the exact packets
// delivered and cells rendered, which turn a wall clock into ns_per_pkt
// and us_per_cell. The "all" entry is `-exp all`: the concatenated
// output and the sums.
type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Pkts   int64  `json:"pkts"`
	Cells  int64  `json:"cells"`
}

// golden maps scale ("full", "quick") and experiment name to its entry.
type golden map[string]map[string]goldenEntry

func goldenPath(root string) string { return filepath.Join(root, "benchmark", "golden.json") }

func loadGolden(root string) (golden, error) {
	raw, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	return g, nil
}

// sum adds up the blessed packets and cells of the named experiments.
func (g golden) sum(scale string, exps []string) (pkts, cells int64) {
	for _, e := range exps {
		pkts += g[scale][e].Pkts
		cells += g[scale][e].Cells
	}
	return pkts, cells
}

// findRoot walks up from the working directory to the module root: the
// directory that holds go.mod and the two commands the harness builds.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "cmd", "ecfbench", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod with cmd/ecfbench above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func newHarness(cfg config) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{
		cfg:  cfg,
		root: root,
		bin:  filepath.Join(root, "benchmark", ".build"),
		tmp:  filepath.Join(root, "benchmark", ".tmp", fmt.Sprintf("run-%d", os.Getpid())),
	}
	if err := os.MkdirAll(h.tmp, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.tmp) }

// build compiles cmd/ecfbench and cmd/ecfd from the working tree. It is
// never timed: how long it takes says how warm the toolchain's cache is.
func (h *harness) build() error {
	gotmp := filepath.Join(h.tmp, "gotmp")
	if err := os.MkdirAll(gotmp, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", h.bin+string(filepath.Separator), "./cmd/ecfbench", "./cmd/ecfd")
	cmd.Dir = h.root
	cmd.Env = append(os.Environ(), "GOTMPDIR="+gotmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/ecfbench ./cmd/ecfd: %w\n%s", err, out)
	}
	return nil
}

// dir returns a fresh, empty scratch directory.
func (h *harness) dir(name string) (string, error) {
	d := filepath.Join(h.tmp, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// child is the outcome of one finished child process.
type child struct {
	stdout []byte
	cpu    time.Duration // user + system, from the wait4 rusage
	rssKB  int64         // ru_maxrss
}

// usage is what an iteration's children cost together.
type usage struct {
	cpu   time.Duration
	rssKB int64 // the largest child
}

func (u *usage) add(c child) {
	u.cpu += c.cpu
	if c.rssKB > u.rssKB {
		u.rssKB = c.rssKB
	}
}

func finished(cmd *exec.Cmd, stdout []byte) child {
	c := child{stdout: stdout}
	if ps := cmd.ProcessState; ps != nil {
		c.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssKB = int64(ru.Maxrss)
		}
	}
	return c
}

// ecfbench runs the built binary to completion; a non-zero exit is an
// error that carries the tail of its stderr.
func (h *harness) ecfbench(args ...string) (child, error) {
	cmd := exec.Command(filepath.Join(h.bin, "ecfbench"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	c := finished(cmd, stdout.Bytes())
	if err != nil {
		return c, fmt.Errorf("ecfbench %s: %w: %s", strings.Join(args, " "), err, tail(stderr.String()))
	}
	return c, nil
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "..." + s[len(s)-400:]
	}
	return s
}

// check compares a child's stdout with the blessed hash.
func (h *harness) check(scale, exp string, stdout []byte) error {
	want, ok := h.golden[scale][exp]
	if !ok {
		return fmt.Errorf("golden.json has no entry for %s at %s scale; run -bless", exp, scale)
	}
	if got := hash(stdout); got != want.SHA256 {
		return fmt.Errorf("%s at %s scale: stdout sha256 %s differs from golden.json's %s", exp, scale, got, want.SHA256)
	}
	return nil
}

// runExps is one iteration of stream-cold or web-cold: one cold
// single-worker child per experiment, each output checked against
// golden.json and, when each is set, handed to it.
func (h *harness) runExps(scale string, exps []string, u *usage, each func(exp string, stdout []byte) error) error {
	for _, e := range exps {
		c, err := h.ecfbench("-exp", e, "-scale", scale, "-no-cache", "-j", "1")
		u.add(c)
		if err != nil {
			return err
		}
		if err := h.check(scale, e, c.stdout); err != nil {
			return err
		}
		if each != nil {
			if err := each(e, c.stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAll is one whole-catalog child with the given extra flags.
func (h *harness) runAll(scale string, u *usage, extra ...string) error {
	c, err := h.ecfbench(append([]string{"-exp", "all", "-scale", scale}, extra...)...)
	u.add(c)
	if err != nil {
		return err
	}
	return h.check(scale, "all", c.stdout)
}

// countFiles counts the regular files below dir and adds up their
// sizes.
func countFiles(dir string) (n int, size int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n++
		size += info.Size()
		return nil
	})
	return n, size, err
}

// coordinator is a running `ecfd serve -exit-when-done` child.
type coordinator struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	addr   string
	exited chan error
}

// startCoordinator starts ecfd over the store at dir on a free loopback
// port and returns once it accepts connections.
func (h *harness) startCoordinator(dir string) (*coordinator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	co := &coordinator{addr: ln.Addr().String(), exited: make(chan error, 1)}
	ln.Close()
	co.cmd = exec.Command(filepath.Join(h.bin, "ecfd"), "serve", "-scale", "quick", "-cache-dir", dir, "-addr", co.addr, "-exit-when-done")
	co.cmd.Stderr = &co.stderr
	if err := co.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { co.exited <- co.cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", co.addr, time.Second)
		if err == nil {
			conn.Close()
			return co, nil
		}
		select {
		case werr := <-co.exited:
			return nil, fmt.Errorf("ecfd exited before listening: %v: %s", werr, tail(co.stderr.String()))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			co.kill()
			return nil, fmt.Errorf("ecfd did not listen on %s within 20s", co.addr)
		}
	}
}

// wait blocks until ecfd has exited and reports a non-zero exit.
func (co *coordinator) wait(u *usage) error {
	select {
	case err := <-co.exited:
		u.add(finished(co.cmd, nil))
		if err != nil {
			return fmt.Errorf("ecfd: %w: %s", err, tail(co.stderr.String()))
		}
		return nil
	case <-time.After(60 * time.Second):
		co.kill()
		return errors.New("ecfd did not exit within 60s of the worker finishing")
	}
}

// kill ends ecfd on an error path and waits for it.
func (co *coordinator) kill() {
	co.cmd.Process.Kill()
	<-co.exited
}

// coordSweep is one iteration of coord-sweep over the empty store at
// dir: coordinator, one joined single-threaded worker, then the merge
// render. sweep is the part before the merge.
func (h *harness) coordSweep(dir string, u *usage) (sweep time.Duration, err error) {
	start := time.Now()
	co, err := h.startCoordinator(dir)
	if err != nil {
		return 0, err
	}
	c, err := h.ecfbench("-join", co.addr, "-j", "1")
	u.add(c)
	if err != nil {
		co.kill()
		return 0, err
	}
	if err := co.wait(u); err != nil {
		return 0, err
	}
	sweep = time.Since(start)
	return sweep, h.runAll("quick", u, "-cache-dir", dir, "-merge", "-j", "1")
}
