package netsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current simulator")

// The golden suite locks the packet simulator's observable behaviour:
// every routing or data-structure change inside internal/netsim must
// reproduce these recorded Steps/TotalHops/MaxQueue values bit for
// bit, across every Table 1 topology, relation degree, seed, port
// discipline, and Valiant on/off. The files were captured from the
// first simulator (linear adjacency scans, slice FIFOs) and never
// regenerated: each later router (a link-index table with ring-buffer
// FIFOs, then the one-byte next-link table with per-node link masks
// and pooled linked-list FIFOs) reproduces them unmodified. All golden
// graphs have at most 64 nodes; FuzzRouterMatchesReference covers
// larger ones against an independent reference router.

type goldenRoute struct {
	Steps     int   `json:"steps"`
	Packets   int   `json:"packets"`
	TotalHops int64 `json:"totalHops"`
	MaxQueue  int   `json:"maxQueue"`
}

type goldenAdvance struct {
	Steps     int64 `json:"steps"`
	Delivered int   `json:"delivered"`
	TotalHops int64 `json:"totalHops"`
	MaxQueue  int   `json:"maxQueue"`
}

func goldenGraphs() []*topology.Graph {
	return []*topology.Graph{
		topology.Array(4, 2, false),
		topology.Array(4, 2, true),
		topology.Hypercube(16, true),
		topology.Hypercube(16, false),
		topology.Butterfly(3),
		topology.CCC(3),
		topology.ShuffleExchange(4),
		topology.MeshOfTrees(4),
	}
}

// goldenRelation derives the test relation for a case deterministically
// from the case coordinates, so the suite needs no recorded inputs.
func goldenRelation(g *topology.Graph, h int, seed uint64) relation.Relation {
	rng := stats.NewRNG(seed*1000003 + uint64(h))
	return relation.RandomRegular(rng, g.P(), h)
}

// dropSelf removes src == dst pairs: Route skips them for free while
// Inject rejects them, so shared cases exclude them.
func dropSelf(rel relation.Relation) relation.Relation {
	out := relation.Relation{P: rel.P}
	for _, pr := range rel.Pairs {
		if pr.Src != pr.Dst {
			out.Pairs = append(out.Pairs, pr)
		}
	}
	return out
}

func goldenRouteCases() (keys []string, run map[string]func() goldenRoute) {
	run = map[string]func() goldenRoute{}
	for _, g := range goldenGraphs() {
		for _, h := range []int{1, 2, 4, 8} {
			for _, seed := range []uint64{1, 2} {
				for _, valiant := range []bool{false, true} {
					key := fmt.Sprintf("%s/h=%d/seed=%d/valiant=%v", g.Name, h, seed, valiant)
					g, h, seed, valiant := g, h, seed, valiant
					run[key] = func() goldenRoute {
						rel := goldenRelation(g, h, seed)
						r := New(g).NewRouter().Route(rel, RouteOptions{Valiant: valiant, Seed: seed + 17})
						return goldenRoute{Steps: r.Steps, Packets: r.Packets, TotalHops: r.TotalHops, MaxQueue: r.MaxQueue}
					}
					keys = append(keys, key)
				}
			}
		}
	}
	sort.Strings(keys)
	return keys, run
}

// Advance cases drive a Router one step at a time with Inject and
// Advance. They cover both the everything-at-step-0 pattern and a
// staggered injection schedule (pair i enters at step i mod 5), which
// exercises pushes landing in a partially drained network.
func goldenAdvanceCases() (keys []string, run map[string]func() goldenAdvance) {
	run = map[string]func() goldenAdvance{}
	for _, g := range goldenGraphs() {
		for _, h := range []int{1, 3} {
			for _, seed := range []uint64{3, 4} {
				for _, stagger := range []bool{false, true} {
					key := fmt.Sprintf("%s/h=%d/seed=%d/stagger=%v", g.Name, h, seed, stagger)
					g, h, seed, stagger := g, h, seed, stagger
					run[key] = func() goldenAdvance {
						rel := dropSelf(goldenRelation(g, h, seed))
						rt := New(g).NewRouter()
						var out goldenAdvance
						next := 0
						inject := func() {
							for ; next < len(rel.Pairs); next++ {
								if stagger && int64(next%5) > rt.Step() {
									break
								}
								pr := rel.Pairs[next]
								rt.Inject(int32(next+1), pr.Src, pr.Dst)
							}
						}
						inject()
						for rt.Pending() > 0 || next < len(rel.Pairs) {
							arr := rt.Advance()
							out.Delivered += len(arr)
							if len(arr) > 0 {
								out.Steps = rt.Step()
							}
							inject()
							if rt.Step() > 100000 {
								panic("netsim golden: Advance overran")
							}
						}
						out.TotalHops = rt.TotalHops
						out.MaxQueue = rt.MaxQueue
						return out
					}
					keys = append(keys, key)
				}
			}
		}
	}
	sort.Strings(keys)
	return keys, run
}

const (
	goldenRouteFile   = "testdata/golden_route.json"
	goldenAdvanceFile = "testdata/golden_stepper.json"
)

// TestGoldenRoute replays every recorded Route configuration and
// asserts bit-identical results. Run with -update only when the
// routing semantics intentionally change, never for a refactor.
func TestGoldenRoute(t *testing.T) {
	keys, runs := goldenRouteCases()
	if *update {
		got := map[string]goldenRoute{}
		for _, k := range keys {
			got[k] = runs[k]()
		}
		writeGoldenJSON(t, goldenRouteFile, got)
		return
	}
	want := map[string]goldenRoute{}
	readGoldenJSON(t, goldenRouteFile, &want)
	if len(want) != len(keys) {
		t.Fatalf("golden file has %d cases, suite defines %d (regenerate with -update)", len(want), len(keys))
	}
	for _, k := range keys {
		k := k
		t.Run(k, func(t *testing.T) {
			w, ok := want[k]
			if !ok {
				t.Fatalf("case missing from golden file (regenerate with -update)")
			}
			if g := runs[k](); g != w {
				t.Errorf("Route diverged from recorded golden:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}

// TestGoldenStepper is the Inject/Advance counterpart of
// TestGoldenRoute. Like its file golden_stepper.json, it keeps the
// name of the Stepper type that recorded the file.
func TestGoldenStepper(t *testing.T) {
	keys, runs := goldenAdvanceCases()
	if *update {
		got := map[string]goldenAdvance{}
		for _, k := range keys {
			got[k] = runs[k]()
		}
		writeGoldenJSON(t, goldenAdvanceFile, got)
		return
	}
	want := map[string]goldenAdvance{}
	readGoldenJSON(t, goldenAdvanceFile, &want)
	if len(want) != len(keys) {
		t.Fatalf("golden file has %d cases, suite defines %d (regenerate with -update)", len(want), len(keys))
	}
	for _, k := range keys {
		k := k
		t.Run(k, func(t *testing.T) {
			w, ok := want[k]
			if !ok {
				t.Fatalf("case missing from golden file (regenerate with -update)")
			}
			if g := runs[k](); g != w {
				t.Errorf("Inject/Advance diverged from recorded golden:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}

func writeGoldenJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGoldenJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
}
