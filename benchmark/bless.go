package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/results"
)

// bless rewrites golden.json from this build: per experiment and scale
// the SHA-256 of the binary's stdout, and the exact packets and cells
// of one in-process pass (a store-less session computes every cell and
// counts it). It also requires the in-process render to be what the
// binary prints after its header line, so the traced run and the timed
// runs are known to do the same work.
func (h *harness) bless() error {
	t := newTracer()
	g := golden{}
	for _, scale := range []string{"full", "quick"} {
		sc := scaleOf(scale)
		sc.Workers = 1
		sc.Results = &results.Session{}
		stats := map[string]expStats{}
		if err := t.catalogPass(sc, drivers, stats); err != nil {
			return err
		}
		g[scale] = map[string]goldenEntry{}
		var all goldenEntry
		for _, d := range drivers {
			c, err := h.ecfbench("-exp", d.name, "-scale", scale, "-no-cache", "-j", "1")
			if err != nil {
				return err
			}
			s := stats[d.name]
			if !bytes.HasSuffix(c.stdout, []byte(s.out+"\n")) {
				return fmt.Errorf("ecfbench -exp %s -scale %s prints something else than the in-process driver renders", d.name, scale)
			}
			g[scale][d.name] = goldenEntry{hash(c.stdout), s.pkts, s.cells()}
			all.Pkts += s.pkts
			all.Cells += s.cells()
		}
		c, err := h.ecfbench("-exp", "all", "-scale", scale, "-no-cache", "-j", "1")
		if err != nil {
			return err
		}
		all.SHA256 = hash(c.stdout)
		g[scale]["all"] = all
		fmt.Printf("blessed %s scale: %d experiments, %d packets, %d cells\n", scale, len(drivers), all.Pkts, all.Cells)
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(h.root), append(raw, '\n'), 0o644)
}

func hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
