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
	// for the regular suite); -bench uses it to normalize allocation
	// traffic into a bytes-per-processor figure.
	Procs int
}

// All lists every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Table 1: topology parameters, analytic and measured", E1Table1, 0},
		{"E2", "Theorem 1: LogP-on-BSP slowdown", E2LogPOnBSP, 0},
		{"E3", "Theorem 2: BSP-on-LogP deterministic slowdown S(L,G,p,h)", E3BSPOnLogPDet, 0},
		{"E4", "Theorem 3: randomized routing vs beta*G*h", E4Randomized, 0},
		{"E5", "Propositions 1-2: Combine-and-Broadcast time", E5CombineBroadcast, 0},
		{"E6", "Stalling: hot-spot behaviour and the stalling extension", E6Stalling, 0},
		{"E7", "Observation 1: best attainable (g*,l*) vs (G*,L*)", E7Observation1, 0},
		{"E8", "Off-line routing: measured vs 2o+G(h-1)+L", E8Offline, 0},
		{"E9", "Section 6: radix-sort bucket exchange vs key skew", E9RadixSkew, 0},
		{"E10", "Portability: one BSP program on every topology", E10Portability, 0},
		{"E11", "Section 6: partitionability / multiuser operation", E11Partitionability, 0},
		{"E12", "Section 6: parameter changes and program behaviour", E12ParameterPortability, 0},
		{"E13", "Section 5: LogP directly on each topology", E13LogPOnNetworks, 0},
		{"A1", "Ablation: delivery-time policy", A1DeliveryPolicy, 0},
		{"A2", "Ablation: CB tree arity", A2CBArity, 0},
		{"A3", "Ablation: randomized batch factor", A3BatchFactor, 0},
		{"A4", "Ablation: oblivious sorter", A4Sorter, 0},
		{"A5", "Ablation: Theorem 1 cycle length", A5CycleLen, 0},
		{"A6", "Ablation: Stalling Rule acceptance order", A6AcceptOrder, 0},
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
