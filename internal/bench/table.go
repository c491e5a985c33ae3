// Package bench regenerates the paper's quantitative content: Table 1
// and the measurable claims of Theorems 1-3, Propositions 1-2, the
// stalling analysis, and Observation 1. Each experiment (E1..E8,
// indexed in DESIGN.md) produces a Table that cmd/bsplogp prints and
// EXPERIMENTS.md records.
package bench

import (
	"fmt"
	"math"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are Sprint-ed.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat picks the precision by magnitude so a value and its
// negation render symmetrically (|x| >= 1000 as an integer, |x| >= 10
// with one decimal, smaller with two); zero, NaN, and the infinities
// print as themselves.
func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case math.IsNaN(x):
		return "NaN"
	case math.IsInf(x, 1):
		return "+Inf"
	case math.IsInf(x, -1):
		return "-Inf"
	}
	switch abs := math.Abs(x); {
	case abs >= 1000:
		return fmt.Sprintf("%.0f", x)
	case abs >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.2f", x)
	}
}

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiments.
type Config struct {
	// Quick shrinks processor counts and trial counts for tests.
	Quick bool
	// Seed drives every random choice.
	Seed uint64
	// Warm, when non-nil, caches cross-simulators and packet networks
	// across runs (see Warm); tables are byte-identical with or
	// without it. Not safe for concurrent use.
	Warm *Warm
}

// Experiment couples an id with its generator.
type Experiment struct {
	ID   string
	Name string
	Run  func(Config) *Table
	// Procs is the guest processor count of a scale experiment (zero
	// for the regular suite).
	Procs int
	// quickProcs caps Procs under -quick (see RunProcs).
	quickProcs int
}

// RunProcs returns the guest processor count e runs at under cfg:
// Procs, capped under -quick. -bench divides allocation traffic by it,
// and -scale -quick runs only the entries it leaves at Procs, so no
// table runs twice.
func (e Experiment) RunProcs(cfg Config) int {
	if cfg.Quick && e.Procs > e.quickProcs {
		return e.quickProcs
	}
	return e.Procs
}

// All lists every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "Table 1: topology parameters, analytic and measured", Run: E1Table1},
		{ID: "E2", Name: "Theorem 1: LogP-on-BSP slowdown", Run: E2LogPOnBSP},
		{ID: "E3", Name: "Theorem 2: BSP-on-LogP deterministic slowdown S(L,G,p,h)", Run: E3BSPOnLogPDet},
		{ID: "E4", Name: "Theorem 3: randomized routing vs beta*G*h", Run: E4Randomized},
		{ID: "E5", Name: "Propositions 1-2: Combine-and-Broadcast time", Run: E5CombineBroadcast},
		{ID: "E6", Name: "Stalling: hot-spot behaviour and the stalling extension", Run: E6Stalling},
		{ID: "E7", Name: "Observation 1: best attainable (g*,l*) vs (G*,L*)", Run: E7Observation1},
		{ID: "E8", Name: "Off-line routing: measured vs 2o+G(h-1)+L", Run: E8Offline},
		{ID: "E9", Name: "Section 6: radix-sort bucket exchange vs key skew", Run: E9RadixSkew},
		{ID: "E10", Name: "Portability: one BSP program on every topology", Run: E10Portability},
		{ID: "E11", Name: "Section 6: partitionability / multiuser operation", Run: E11Partitionability},
		{ID: "E12", Name: "Section 6: parameter changes and program behaviour", Run: E12ParameterPortability},
		{ID: "E13", Name: "Section 5: LogP directly on each topology", Run: E13LogPOnNetworks},
		{ID: "A1", Name: "Ablation: delivery-time policy", Run: A1DeliveryPolicy},
		{ID: "A2", Name: "Ablation: CB tree arity", Run: A2CBArity},
		{ID: "A3", Name: "Ablation: randomized batch factor", Run: A3BatchFactor},
		{ID: "A4", Name: "Ablation: oblivious sorter", Run: A4Sorter},
		{ID: "A5", Name: "Ablation: Theorem 1 cycle length", Run: A5CycleLen},
		{ID: "A6", Name: "Ablation: Stalling Rule acceptance order", Run: A6AcceptOrder},
	}
}

// Lookup finds an experiment by id (case-insensitive), searching the
// regular suite and the large-p scale registry.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	for _, e := range Scale() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
