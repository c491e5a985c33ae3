package core

import (
	"testing"

	"repro/internal/logp"
)

// Steady-state allocation guards for the scripted Theorem 1 cycle
// engine. A LogPOnBSP value reused across Runs (the bench warm pool)
// retains its cycleEngine: the guest slab, record slab, run queues, and
// the ring of per-cycle count columns all reset in place, so a warm
// RunScript should allocate only what escapes to the caller.

func runThm1Guard(t *testing.T, sim *LogPOnBSP, p int) float64 {
	t.Helper()
	sc := newThm1RingScript(p, 3)
	if _, err := sim.RunScript(sc); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		clear(sc.step)
		if _, err := sim.RunScript(sc); err != nil {
			panic(err)
		}
	})
}

func TestThm1RunScriptSteadyStateAllocGuard(t *testing.T) {
	// p = 500 is deliberately not a power of two: the replay keeps O(1)
	// state per message (no pair retention for the executed stalling
	// extension), the configuration the scale experiments run in.
	const p = 500
	sim := &LogPOnBSP{LogP: logp.Params{P: p, L: 32, O: 2, G: 4}}
	avg := runThm1Guard(t, sim, p)
	// The one structural allocation is the result's CycleH slice: it
	// escapes to the caller, so every Run builds a fresh []int64.
	// Everything engine-side — guest slab, record slab, run queues, the
	// count ring — must come from reused storage.
	if avg > 1 {
		t.Errorf("warm Thm1 RunScript allocates %.1f objects/run, want <= 1 (CycleH)", avg)
	}
}

func TestThm1RunScriptSteadyStateAllocGuardPow2(t *testing.T) {
	// Power-of-two p enables pair retention for the executed stalling
	// extension, but pairs are kept only for overloaded cycles: a
	// stall-free replay like this ring keeps none, so the budget is the
	// same single CycleH allocation as the non-power-of-two guard.
	const p = 512
	sim := &LogPOnBSP{LogP: logp.Params{P: p, L: 32, O: 2, G: 4}}
	avg := runThm1Guard(t, sim, p)
	if avg > 1 {
		t.Errorf("warm pow2 Thm1 RunScript allocates %.1f objects/run, want <= 1 (CycleH)", avg)
	}
}

// The warm Theorem 2 deterministic router (a BSPOnLogP reused across
// Runs, as the experiments and the benchmark reuse it) moves message
// handles through its sorting networks: no per-message boxing, and its
// block, merge, summary and schedule scratch live on the pooled
// adapters. What a Run still allocates — collectives, the host
// machine's per-Run state, per-exchange scratch — does not depend on h,
// so a Run at h = 32 may allocate only a few objects more than one at
// h = 4. Boxing each message per network round would add about
// p·(32−4)·depth objects. The off-line router's Hall decomposition
// reuses its pair list and class table across supersteps, so what it
// allocates per superstep, the decomposition's own working arrays, does
// not depend on h either.

func bspOnLogPAllocs(t *testing.T, sim *BSPOnLogP, h int) float64 {
	t.Helper()
	prog := regularProgram(sim.LogP.P, h)
	if _, err := sim.Run(prog); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(3, func() {
		if _, err := sim.Run(prog); err != nil {
			panic(err)
		}
	})
}

func TestBSPOnLogPSteadyStateAllocGuard(t *testing.T) {
	cases := []struct {
		name   string
		p      int
		router Router
		sort   SortAlgo
		hs     [2]int
	}{
		// bitonic, depth 21 at p = 64
		{"bitonic-p64", 64, RouterDeterministic, SortBitonic, [2]int{4, 32}},
		// columnsort pads r to 54 at h = 4 and to 132 at h = 128
		{"columnsort-p6", 6, RouterDeterministic, SortColumnsort, [2]int{4, 128}},
		{"offline-p64", 64, RouterOffline, SortAuto, [2]int{4, 32}},
	}
	const slack = 32
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := &BSPOnLogP{LogP: logp.Params{P: c.p, L: 16, O: 1, G: 2},
				Router: c.router, Sort: c.sort, Seed: 1, StrictStallFree: true}
			lo := bspOnLogPAllocs(t, sim, c.hs[0])
			hi := bspOnLogPAllocs(t, sim, c.hs[1])
			t.Logf("allocs/Run: h=%d %.0f, h=%d %.0f", c.hs[0], lo, c.hs[1], hi)
			if hi > lo+slack {
				t.Errorf("warm %v Run allocates %.0f objects at h=%d vs %.0f at h=%d: more than %d extra, so the per-Run budget grows with h",
					c.router, hi, c.hs[1], lo, c.hs[0], slack)
			}
		})
	}
}
