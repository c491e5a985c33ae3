package netsim

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestRouteValiantSteadyStateAlloc pins the Router contract stated on the
// type: repeated Route calls on a held Router reuse the per-run
// scratch (the packet pool, link queues and masks, the move staging) and
// reach zero steady-state allocations — here under Valiant routing on
// both port disciplines (router_test.go pins the plain single-port
// case). This is the dynamic guard
// behind the allocdiscipline //hot:path mark on step — the analyzer
// rejects escapes statically, this pins the end-to-end count.
func TestRouteValiantSteadyStateAlloc(t *testing.T) {
	for _, multiPort := range []bool{true, false} {
		g := topology.Hypercube(64, multiPort)
		net := New(g)
		rt := net.NewRouter()
		rel := relation.RandomRegular(stats.NewRNG(11), g.P(), 4)
		route := func() {
			rt.Route(rel, RouteOptions{Valiant: true, Seed: 99})
		}
		route() // grow the packet pool and the move staging to their high-water sizes
		if avg := testing.AllocsPerRun(10, route); avg != 0 {
			t.Errorf("multiPort=%v: warm Route allocates %.1f objects/run, want 0", multiPort, avg)
		}
	}
}

// TestAdvanceSteadyStateAlloc pins the same contract for the
// one-step-at-a-time path internal/netlogp uses: a held Router fed
// staggered Inject calls and drained with Advance allocates nothing
// once warm, on both port disciplines.
func TestAdvanceSteadyStateAlloc(t *testing.T) {
	for _, multiPort := range []bool{true, false} {
		g := topology.Hypercube(64, multiPort)
		rt := New(g).NewRouter()
		rel := dropSelf(relation.RandomRegular(stats.NewRNG(5), g.P(), 4))
		drain := func() {
			start, next := rt.Step(), 0
			for next < len(rel.Pairs) || rt.Pending() > 0 {
				for ; next < len(rel.Pairs) && int64(next%5) <= rt.Step()-start; next++ {
					pr := rel.Pairs[next]
					rt.Inject(int32(next), pr.Src, pr.Dst)
				}
				rt.Advance()
			}
		}
		// The step count carries over between runs, so each run starts
		// the single-port rotation at another of the 6 phases; 8 runs
		// visit every phase a later run can start at, growing the pool,
		// the move staging and the arrival buffer to their high-water
		// sizes.
		for range 8 {
			drain()
		}
		if avg := testing.AllocsPerRun(10, drain); avg != 0 {
			t.Errorf("multiPort=%v: warm Inject/Advance allocates %.1f objects/run, want 0", multiPort, avg)
		}
	}
}

// TestMeasureGLInnerLoopAlloc bounds the per-job cost of the
// MeasureGL sweep's inner loop: one trial draws its RNG and its
// random h-relation (inherently O(h) allocations of O(p)-sized
// buffers) and then routes it on the worker's held Router for free.
// The budget is the draw's own profile with no room for any
// per-packet or per-step routing allocation on top.
func TestMeasureGLInnerLoopAlloc(t *testing.T) {
	const h, trials, seed = 4, 3, uint64(7)
	g := topology.Hypercube(64, true)
	net := New(g)
	rt := net.NewRouter()

	// The draw alone: what one job pays before it touches the router.
	j := 0
	draw := func() {
		rng := stats.NewRNG(trialSeed(seed, h, j%trials))
		rel := relation.RandomRegular(rng, g.P(), h)
		_ = rel
		j++
	}
	drawAvg := testing.AllocsPerRun(10, draw)

	// The full inner loop, warm router held across jobs as measureGL's
	// workers hold theirs.
	job := func() {
		rng := stats.NewRNG(trialSeed(seed, h, j%trials))
		rel := relation.RandomRegular(rng, g.P(), h)
		r := rt.Route(rel, RouteOptions{Valiant: true, Seed: rng.Uint64()})
		if r.Steps <= 0 {
			t.Fatal("routing did nothing")
		}
		j++
	}
	for range trials {
		job() // reach the router's high-water sizes for every trial seed
	}
	jobAvg := testing.AllocsPerRun(2*trials, job)

	if jobAvg > drawAvg {
		t.Errorf("MeasureGL inner loop allocates %.1f objects/job, draw alone costs %.1f: routing must add 0", jobAvg, drawAvg)
	}
}
