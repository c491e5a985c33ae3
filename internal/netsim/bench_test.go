package netsim

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// benchRelation builds a fixed dense relation for the routing
// benchmarks, outside the timed region.
func benchRelation(g *topology.Graph, h int, seed uint64) relation.Relation {
	rng := stats.NewRNG(seed)
	return relation.RandomRegular(rng, g.P(), h)
}

// BenchmarkRoute measures one Route call on a reused Router — the hot
// path behind every MeasureGL trial. Steady-state allocations must be
// ~0: the packet pool and the move staging reach their high-water
// marks in the first iteration. Mesh-of-trees is the one graph with
// switch nodes, and the one with the largest routing table.
func BenchmarkRoute(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"hypercube-multi(64)", topology.Hypercube(64, true)},
		{"hypercube-single(64)", topology.Hypercube(64, false)},
		{"mesh(64)", topology.Array(8, 2, false)},
		{"mesh-of-trees(64)", topology.MeshOfTrees(8)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net := New(bc.g)
			rt := net.NewRouter()
			rel := benchRelation(bc.g, 8, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := rt.Route(rel, RouteOptions{Seed: uint64(i)})
				if r.Steps == 0 {
					b.Fatal("no routing happened")
				}
			}
		})
	}
}

// BenchmarkAdvance measures draining an h-relation through Inject and
// Advance on a fresh Router, the co-simulation path of
// internal/netlogp (one Router per run).
func BenchmarkAdvance(b *testing.B) {
	g := topology.Hypercube(64, false)
	net := New(g)
	rel := dropSelf(benchRelation(g, 8, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := net.NewRouter()
		for j, pr := range rel.Pairs {
			rt.Inject(int32(j+1), pr.Src, pr.Dst)
		}
		for rt.Pending() > 0 {
			rt.Advance()
		}
	}
}

// BenchmarkMeasureGL times the measurement pipeline. The
// hypercube-single(64) case is one E1 row end to end (network build,
// relation generation, routing, fitting). The table1(256) case is one
// op of the netsim-gl-p256 benchmark workload: the eight Table 1
// graphs near p = 256, built once outside the timer, each measured
// over hs {1, 2, 4, 8, 16} with 3 trials on one worker.
func BenchmarkMeasureGL(b *testing.B) {
	b.Run("hypercube-single(64)", func(b *testing.B) {
		g := topology.Hypercube(64, false)
		hs := []int{1, 2, 4, 8}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := New(g).MeasureGL(hs, 3, uint64(i+1), false)
			if m.G <= 0 {
				b.Fatal("degenerate fit")
			}
		}
	})
	b.Run("table1(256)", func(b *testing.B) {
		var nets []*Network
		for _, g := range []*topology.Graph{
			topology.Array(16, 2, false),
			topology.Array(7, 3, false),
			topology.Hypercube(256, true),
			topology.Hypercube(256, false),
			topology.Butterfly(6),
			topology.CCC(6),
			topology.ShuffleExchange(8),
			topology.MeshOfTrees(16),
		} {
			nets = append(nets, New(g))
		}
		hs := []int{1, 2, 4, 8, 16}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, net := range nets {
				if m := net.measureGL(hs, 3, uint64(i+1), false, 1); m.G <= 0 {
					b.Fatal("degenerate fit")
				}
			}
		}
	})
}
