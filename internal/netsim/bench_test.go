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
// ~0: the rings, bitsets, and move staging reach their high-water
// marks in the first iteration.
func BenchmarkRoute(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"hypercube-multi(64)", topology.Hypercube(64, true)},
		{"hypercube-single(64)", topology.Hypercube(64, false)},
		{"mesh(64)", topology.Array(8, 2, false)},
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

// BenchmarkMeasureGL times the full measurement pipeline of one E1
// row (network build, relation generation, routing, fitting).
func BenchmarkMeasureGL(b *testing.B) {
	g := topology.Hypercube(64, false)
	hs := []int{1, 2, 4, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(g).MeasureGL(hs, 3, uint64(i+1), false)
		if m.G <= 0 {
			b.Fatal("degenerate fit")
		}
	}
}
