package core

import (
	"testing"

	"repro/internal/logp"
)

// Steady-state allocation guards for the scripted Theorem 1 cycle
// engine. A LogPOnBSP value reused across Runs (the bench warm pool)
// retains its cycleEngine: the guest slab, record slab, run queues, and
// windowed per-cycle columns all reset in place, so a warm RunScript
// should allocate only what escapes to the caller.

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
	// Everything engine-side — guest slab, record slab, run queues, windowed
	// cycle columns — must come from reused storage.
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
