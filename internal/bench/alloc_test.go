package bench

import (
	"testing"

	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// TestScaleRandSteadyStateAllocGuard pins E16's steady state, the
// shape one trial of the randomized-routing sweep has under a warm
// benchmark run: the machine comes reseeded from the pool, the
// permutation stream redraws into its retained flat buffer, and the
// script reuses its per-processor counters. What remains per trial is
// a small constant, so the h-relation's O(p*h) draw storage and the
// engine's O(p) state are paid once per pool, not once per seed — the
// property behind the bytes/proc targets in BENCH_logp.json.
func TestScaleRandSteadyStateAllocGuard(t *testing.T) {
	const p, h = 512, 4
	lp := scaleRandLogP(p)
	warm := NewWarm()
	rel := &relation.RandomRegularStream{}
	rel.Reset(stats.NewRNG(7), p, h)
	sc := newScaleRandScript(rel, scaleRandWindow)
	trial := func() {
		// A fresh RNG at the same seed makes every trial replay the
		// identical draws, so the allocation profile is the run's, not
		// permutation-dependent buffer-growth noise.
		rel.Reset(stats.NewRNG(7), p, h)
		clear(sc.k)
		clear(sc.issued)
		clear(sc.got)
		m := warm.Machine(lp, logp.DeliverRandom, logp.AcceptRandom, 1)
		if _, err := m.RunScript(sc); err != nil {
			panic(err)
		}
	}
	trial() // populate the pool and high-water sizes
	avg := testing.AllocsPerRun(5, trial)
	// Per-trial constants: the RNG value above and the escaping
	// Result.ProcTimes; the budget leaves room for map-lookup scratch
	// while staying far below anything O(p) or O(p*h).
	if avg > 8 {
		t.Errorf("warm E16 trial allocates %.1f objects/run, want <= 8", avg)
	}
}
