package experiments

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Figure16Result compares average streaming throughput across random
// bandwidth-change scenarios (§5.3).
type Figure16Result struct {
	Scenarios  int
	Schedulers []string
	// Throughput[scheduler][scenario] is the session-average per-chunk
	// throughput in Mbps.
	Throughput map[string][]float64
}

// randomSchedulers are the schedulers of the §5.3 study, in the order of
// the "fig16" family's cells.
var randomSchedulers = []string{"minrtt", "blest", "ecf"}

// randomFamily is "fig16", the §5.3 study: WiFi and LTE bandwidths
// change at exponentially distributed intervals (mean 40 s), drawn
// uniformly from {0.3, 1.1, 1.7, 4.2, 8.6} Mbps. Cell k streams scenario
// k%RandomScenarios+1 under scheduler k/RandomScenarios; scenario n's
// starting rates and changes come from seed("random", n), identical
// across schedulers as in the paper. A cell keeps its per-chunk
// throughput series (Mbps).
func randomFamily(p *Plan) *family[[]float64] {
	sc := p.sc
	return declare(p, "fig16", func(_ Scenario, out *Outcome) []float64 {
		return out.Result.ChunkThroughputsMbps()
	}, func() []Scenario {
		var cells []Scenario
		for _, sched := range randomSchedulers {
			for n := 1; n <= sc.RandomScenarios; n++ {
				rs := seed("random", n)
				init := trace.InitialRates(rs, 2, trace.RandomChangeValuesMbps)
				s := Streaming(init[0], init[1], sched, sc.RandomDurSec)
				s.RandomSeed = rs
				cells = append(cells, s)
			}
		}
		return cells
	})
}

// Figure16 runs the §5.3 study, one unique seed per scenario, and
// averages each session's chunk throughputs.
func Figure16(sc Scale) *Figure16Result { return alone(sc, planFigure16) }

func planFigure16(p *Plan) func() *Figure16Result {
	sc := p.sc
	res := &Figure16Result{
		Scenarios:  sc.RandomScenarios,
		Schedulers: randomSchedulers,
		Throughput: make(map[string][]float64),
	}
	// Pre-size before the fan-out: workers write disjoint (scheduler,
	// scenario) slots and never touch the map itself.
	for _, s := range randomSchedulers {
		res.Throughput[s] = make([]float64, sc.RandomScenarios)
	}
	randomFamily(p).read(func(k int, chunks []float64) {
		si, scen := k/sc.RandomScenarios, k%sc.RandomScenarios
		res.Throughput[randomSchedulers[si]][scen] = metrics.Summarize(chunks).Mean
	})
	return just(res)
}

// meanThroughput averages across scenarios for one scheduler.
func (r *Figure16Result) meanThroughput(s string) float64 {
	return metrics.Summarize(r.Throughput[s]).Mean
}

// String renders per-scenario bars.
func (r *Figure16Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 16: Streaming Throughput under Random Bandwidth Changes (Mbps)\n")
	t := &metrics.Table{Header: append([]string{"scenario"}, r.Schedulers...)}
	for scen := 0; scen < r.Scenarios; scen++ {
		row := []string{fmt.Sprintf("%d", scen+1)}
		for _, s := range r.Schedulers {
			row = append(row, fmt.Sprintf("%.2f", r.Throughput[s][scen]))
		}
		t.AddRow(row...)
	}
	row := []string{"mean"}
	for _, s := range r.Schedulers {
		row = append(row, fmt.Sprintf("%.2f", r.meanThroughput(s)))
	}
	t.AddRow(row...)
	b.WriteString(t.String())
	return b.String()
}

// Figure17Result is the per-chunk throughput trace for one scenario.
type Figure17Result struct {
	Scenario int
	Default  []float64
	ECF      []float64
}

// Figure17 traces chunk throughputs for scenario 6 (as the paper plots),
// clamped to the available scenario count at small scales: the default
// and ECF cells of that scenario in Figure 16's family.
func Figure17(sc Scale) *Figure17Result { return alone(sc, planFigure17) }

func planFigure17(p *Plan) func() *Figure17Result {
	sc := p.sc
	scen := min(6, sc.RandomScenarios)
	res := &Figure17Result{Scenario: scen}
	if scen < 1 {
		return just(res)
	}
	def, ecf := scen-1, 2*sc.RandomScenarios+scen-1 // randomSchedulers[0] and [2]
	randomFamily(p).read(func(k int, chunks []float64) {
		if k == def {
			res.Default = chunks
		} else {
			res.ECF = chunks
		}
	}, def, ecf)
	return just(res)
}

// String renders the two chunk series.
func (r *Figure17Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 17: Per-chunk Throughput Trace (scenario %d, Mbps)\n", r.Scenario)
	t := &metrics.Table{Header: []string{"chunk", "Default", "ECF"}}
	n := len(r.Default)
	if len(r.ECF) > n {
		n = len(r.ECF)
	}
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", i)}
		if i < len(r.Default) {
			row = append(row, fmt.Sprintf("%.2f", r.Default[i]))
		} else {
			row = append(row, "")
		}
		if i < len(r.ECF) {
			row = append(row, fmt.Sprintf("%.2f", r.ECF[i]))
		} else {
			row = append(row, "")
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}
