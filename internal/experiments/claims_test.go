package experiments

import (
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"
)

// shapes are the checks on a claimed experiment's result that are not
// paper claims: run counts and non-empty series, which the claims read.
var shapes = map[string]func(t *testing.T, r fmt.Stringer){
	"fig1": func(t *testing.T, r fmt.Stringer) {
		tr := r.(*Figure1Result).Trace
		if len(tr) == 0 {
			t.Fatal("no download trace")
		}
		for i := 1; i < len(tr); i++ {
			if tr[i].Bytes < tr[i-1].Bytes {
				t.Fatalf("download trace falls at point %d", i)
			}
		}
	},
	"fig3": func(t *testing.T, r fmt.Stringer) {
		if n := len(r.(*Figure3Result).Traces); n != 2 {
			t.Fatalf("%d send-buffer traces, want 2", n)
		}
	},
	"fig15": func(t *testing.T, r fmt.Stringer) {
		f := r.(*Figure15Result)
		if len(f.DefaultRatio) != 6 || len(f.ECFRatio) != 6 {
			t.Fatalf("ratio rows %d/%d, want 6/6", len(f.DefaultRatio), len(f.ECFRatio))
		}
	},
	"fig16": func(t *testing.T, r fmt.Stringer) {
		for s, v := range r.(*Figure16Result).Throughput {
			if len(v) != Full.RandomScenarios {
				t.Fatalf("%s: %d scenarios, want %d", s, len(v), Full.RandomScenarios)
			}
		}
	},
	"fig17": func(t *testing.T, r fmt.Stringer) {
		f := r.(*Figure17Result)
		if len(f.Default) == 0 || len(f.ECF) == 0 {
			t.Fatalf("chunk traces %d/%d long, want both non-empty", len(f.Default), len(f.ECF))
		}
	},
	"fig22": func(t *testing.T, r fmt.Stringer) {
		f := r.(*Figure22Result)
		if len(f.Default) != 9 || len(f.ECF) != 9 {
			t.Fatalf("run counts %d/%d, want 9/9", len(f.Default), len(f.ECF))
		}
	},
}

// TestClaims runs one catalog plan at Full scale over every experiment a
// claim or a shape check reads, checks each claim's statistic against
// its bound, and logs the claims table: paper, simulated value, bound,
// margin and verdict per row. Full, not Quick: at Quick's 30 s grid
// playout every cell with 8.6 Mbps on an axis is start-up alone, so
// Figures 2 and 9 cannot show their claims.
func TestClaims(t *testing.T) {
	read := map[string]bool{}
	seen := map[string]bool{}
	for _, c := range claims {
		if id := c.exp + "/" + c.name; seen[id] {
			t.Fatalf("claim %s is listed twice", id)
		} else {
			seen[id] = true
		}
		read[c.exp] = true
	}
	for exp := range shapes {
		read[exp] = true
	}
	var exps []Experiment
	for _, e := range Catalog {
		if read[e.Name] {
			exps = append(exps, e)
			delete(read, e.Name)
		}
	}
	for exp := range read {
		t.Fatalf("a claim or shape check reads %q, which the catalog lacks", exp)
	}
	p := NewPlan(Full, exps...)
	if err := p.Run(0, nil); err != nil {
		t.Fatal(err)
	}

	var table strings.Builder
	tw := tabwriter.NewWriter(&table, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "claim\tpaper\tsimulated\tbound\tmargin\tverdict")
	var causes []string
	for i, e := range exps {
		r := p.Render(i)
		t.Run(e.Name, func(t *testing.T) {
			if shape := shapes[e.Name]; shape != nil {
				shape(t, r)
			}
			for _, c := range claims {
				if c.exp != e.Name {
					continue
				}
				sim, bound := c.check(r)
				m := c.op.margin(sim, bound)
				verdict := "holds"
				if !c.op.holds(m) {
					verdict = "FAILS"
				} else if c.reversed != "" {
					verdict = "reversed"
					causes = append(causes, fmt.Sprintf("%s/%s is reversed: %s", c.exp, c.name, c.reversed))
				}
				paper := c.paper
				if paper == "" {
					paper = "-"
				}
				fmt.Fprintf(tw, "%s/%s\t%s\t%.4g\t%s %.4g\t%+.4g\t%s\n", c.exp, c.name, paper, sim, c.op, bound, m, verdict)
				t.Run(c.name, func(t *testing.T) {
					switch {
					case !c.op.holds(m) && c.reversed != "":
						t.Errorf("no longer reversed: %.4g is not %s %.4g; revise the row and its cause", sim, c.op, bound)
					case !c.op.holds(m):
						t.Errorf("simulated %.4g is not %s %.4g (margin %+.4g; paper: %s)", sim, c.op, bound, m, paper)
					}
				})
			}
		})
	}
	tw.Flush()
	for _, row := range append(strings.Split(strings.TrimSuffix(table.String(), "\n"), "\n"), causes...) {
		t.Log(row)
	}
}
