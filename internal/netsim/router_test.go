package netsim

import (
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestRouterReuseDeterministic verifies that a reused Router leaves no
// state behind: back-to-back runs of different relations must match
// fresh-Router runs exactly.
func TestRouterReuseDeterministic(t *testing.T) {
	for _, g := range goldenGraphs() {
		net := New(g)
		rt := net.NewRouter()
		rng := stats.NewRNG(13)
		for trial := 0; trial < 4; trial++ {
			rel := relation.RandomRegular(rng, g.P(), 1+trial)
			opts := RouteOptions{Valiant: trial%2 == 1, Seed: uint64(trial) + 3}
			got := rt.Route(rel, opts)
			want := net.NewRouter().Route(rel, opts)
			if got != want {
				t.Fatalf("%s trial %d: reused router %+v, fresh router %+v", g.Name, trial, got, want)
			}
		}
	}
}

// TestRouteMatchesAdvanceAllTopologies cross-checks the two ways of
// driving a Router on every topology: Inject and Advance run to
// completion must report identical Steps, TotalHops, and MaxQueue to a
// Route of the same relation (all packets entering at step 0).
func TestRouteMatchesAdvanceAllTopologies(t *testing.T) {
	rng := stats.NewRNG(47)
	for _, g := range goldenGraphs() {
		net := New(g)
		for _, h := range []int{1, 2, 5} {
			rel := dropSelf(relation.RandomRegular(rng, g.P(), h))
			want := net.NewRouter().Route(rel, RouteOptions{})

			rt := net.NewRouter()
			for i, pr := range rel.Pairs {
				rt.Inject(int32(i+1), pr.Src, pr.Dst)
			}
			var steps int64
			delivered := 0
			for rt.Pending() > 0 {
				arr := rt.Advance()
				delivered += len(arr)
				if len(arr) > 0 {
					steps = rt.Step()
				}
				if rt.Step() > int64(10*want.Steps+1000) {
					t.Fatalf("%s h=%d: Advance overran", g.Name, h)
				}
			}
			if delivered != len(rel.Pairs) {
				t.Fatalf("%s h=%d: Advance delivered %d of %d", g.Name, h, delivered, len(rel.Pairs))
			}
			if int(steps) != want.Steps {
				t.Fatalf("%s h=%d: Advance finished at %d, Route at %d", g.Name, h, steps, want.Steps)
			}
			if rt.TotalHops != want.TotalHops {
				t.Fatalf("%s h=%d: hops %d vs %d", g.Name, h, rt.TotalHops, want.TotalHops)
			}
			if rt.MaxQueue != want.MaxQueue {
				t.Fatalf("%s h=%d: max queue %d vs %d", g.Name, h, rt.MaxQueue, want.MaxQueue)
			}
		}
	}
}

// TestRouteWithPacketsInFlightPanics: Route restarts the step count,
// so it refuses a Router that Inject has left packets in.
func TestRouteWithPacketsInFlightPanics(t *testing.T) {
	net := New(topology.Hypercube(8, true))
	rt := net.NewRouter()
	rt.Inject(1, 0, 7)
	defer func() {
		if msg, ok := recover().(string); !ok || !strings.HasPrefix(msg, "netsim:") {
			t.Fatalf("Route with a packet in flight: panic %q, want a netsim: panic", msg)
		}
	}()
	rt.Route(relation.Relation{P: 8}, RouteOptions{})
}

// TestMeasureGLParallelMatchesSequential is the determinism contract
// of the parallel measurement layer: any worker count produces the
// same Measurement, bit for bit, as a sequential run.
func TestMeasureGLParallelMatchesSequential(t *testing.T) {
	for _, g := range []*topology.Graph{
		topology.Hypercube(32, true),
		topology.Hypercube(32, false),
		topology.Array(4, 2, true),
	} {
		for _, valiant := range []bool{false, true} {
			hs := []int{1, 2, 4, 8}
			seq := New(g).measureGL(hs, 3, 9, valiant, 1)
			for _, workers := range []int{2, 4, 16} {
				par := New(g).measureGL(hs, 3, 9, valiant, workers)
				if seq.G != par.G || seq.L != par.L || seq.R2 != par.R2 || seq.PermTime != par.PermTime {
					t.Fatalf("%s valiant=%v workers=%d: parallel fit (%v,%v,%v,%v) != sequential (%v,%v,%v,%v)",
						g.Name, valiant, workers, par.G, par.L, par.R2, par.PermTime, seq.G, seq.L, seq.R2, seq.PermTime)
				}
				if len(par.Points) != len(seq.Points) {
					t.Fatalf("%s: point count %d vs %d", g.Name, len(par.Points), len(seq.Points))
				}
				for i := range par.Points {
					if par.Points[i] != seq.Points[i] {
						t.Fatalf("%s point %d: %v vs %v", g.Name, i, par.Points[i], seq.Points[i])
					}
				}
			}
		}
	}
}

// TestMeasureGLExportedMatchesSequential pins the exported entry point
// (GOMAXPROCS workers) to the sequential reference too.
func TestMeasureGLExportedMatchesSequential(t *testing.T) {
	g := topology.Hypercube(16, false)
	hs := []int{1, 2, 4}
	seq := New(g).measureGL(hs, 2, 21, false, 1)
	par := New(g).MeasureGL(hs, 2, 21, false)
	if seq.G != par.G || seq.L != par.L || seq.PermTime != par.PermTime {
		t.Fatalf("MeasureGL (%v,%v,%v) != sequential (%v,%v,%v)", par.G, par.L, par.PermTime, seq.G, seq.L, seq.PermTime)
	}
}

// TestPermTimeSmallestH: PermTime is the mean at the smallest h in
// the grid, independent of hs ordering, and never falls back to an
// arbitrary first entry.
func TestPermTimeSmallestH(t *testing.T) {
	g := topology.Hypercube(16, true)
	// Grid without h=1, deliberately unsorted: the smallest measured
	// h is 2.
	m := New(g).MeasureGL([]int{8, 2, 4}, 3, 5, false)
	ref := New(g).MeasureGL([]int{2}, 3, 5, false)
	if m.PermTime != ref.PermTime {
		t.Fatalf("PermTime %v, want the h=2 mean %v", m.PermTime, ref.PermTime)
	}
	// With h=1 present the value is the permutation time, matching a
	// 1-point measurement.
	m1 := New(g).MeasureGL([]int{4, 1, 8}, 3, 5, false)
	ref1 := New(g).MeasureGL([]int{1}, 3, 5, false)
	if m1.PermTime != ref1.PermTime {
		t.Fatalf("PermTime %v, want the h=1 mean %v", m1.PermTime, ref1.PermTime)
	}
}

// TestMeasureGLRejectsZeroTrials: misconfiguration panics with a
// netsim-prefixed message instead of dividing by zero.
func TestMeasureGLRejectsZeroTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MeasureGL with 0 trials did not panic")
		}
	}()
	New(topology.Hypercube(8, true)).MeasureGL([]int{1}, 0, 1, false)
}

// TestRouterInjectOutOfRangePanics: bad processor ids fail fast with
// a netsim-prefixed message, not an index panic deep in the tables.
func TestRouterInjectOutOfRangePanics(t *testing.T) {
	net := New(topology.Hypercube(8, true))
	for _, bad := range [][2]int{{-1, 3}, {8, 3}, {3, -1}, {3, 8}} {
		bad := bad
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Inject(%d, %d) did not panic", bad[0], bad[1])
				}
				if msg, ok := r.(string); !ok || len(msg) < 7 || msg[:7] != "netsim:" {
					t.Fatalf("Inject(%d, %d) panic %v lacks netsim: prefix", bad[0], bad[1], r)
				}
			}()
			net.NewRouter().Inject(1, bad[0], bad[1])
		}()
	}
}

// TestRouteSteadyStateAllocFree asserts the tentpole property: once a
// Router's scratch has reached its high-water mark, further Route
// calls allocate nothing.
func TestRouteSteadyStateAllocFree(t *testing.T) {
	g := topology.Hypercube(64, false)
	net := New(g)
	rt := net.NewRouter()
	rel := benchRelation(g, 8, 3)
	// Warm up the rings and scratch buffers.
	rt.Route(rel, RouteOptions{Seed: 1})
	avg := testing.AllocsPerRun(20, func() {
		rt.Route(rel, RouteOptions{Seed: 2})
	})
	if avg > 0.5 {
		t.Fatalf("steady-state Route allocates %.1f objects per run, want ~0", avg)
	}
}
