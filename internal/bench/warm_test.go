package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/logp"
)

// benchSpec builds a deterministic-router spec at processor count p.
func benchSpec(p int, seed uint64) core.BSPOnLogP {
	return core.BSPOnLogP{
		LogP:            logp.Params{P: p, L: 16, O: 1, G: 2},
		Router:          core.RouterDeterministic,
		Seed:            seed,
		StrictStallFree: true,
	}
}

// TestWarmCacheDeterministic pins the warm-pool property RunBench uses:
// running an experiment on a fresh Config and re-running it twice on
// one shared Warm (cold hit, then warm hit reusing cached
// cross-simulators and networks) must render byte-identical tables.
// The set covers every cache-consuming construction path: BSPOnLogP
// with the deterministic, randomized, and offline routers (E3/E4/E8),
// the sorter and batch-factor ablations (A3/A4), and the shared
// packet networks (E1).
func TestWarmCacheDeterministic(t *testing.T) {
	ids := []string{"E1", "E3", "E4", "E8", "A3", "A4"}
	warm := NewWarm()
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		cold := e.Run(Config{Quick: true, Seed: 3}).Render()
		first := e.Run(Config{Quick: true, Seed: 3, Warm: warm}).Render()
		second := e.Run(Config{Quick: true, Seed: 3, Warm: warm}).Render()
		if first != cold {
			t.Errorf("%s: warm (cold-cache) table differs from fresh-config table:\nfresh:\n%s\nwarm:\n%s", id, cold, first)
		}
		if second != cold {
			t.Errorf("%s: warm (hot-cache) table differs from fresh-config table:\nfresh:\n%s\nwarm:\n%s", id, cold, second)
		}
	}
}

// TestWarmSimKeyedBySpec checks that distinct specs get distinct
// cached simulators while repeated specs share one, with Seed and Beta
// treated as per-Run inputs rewritten on fetch.
func TestWarmSimKeyedBySpec(t *testing.T) {
	warm := NewWarm()
	specA := benchSpec(16, 1)
	specB := benchSpec(32, 1)
	a1 := warm.Sim(specA)
	b := warm.Sim(specB)
	if a1 == b {
		t.Fatal("different specs must not share a cached simulator")
	}
	specA2 := benchSpec(16, 99)
	a2 := warm.Sim(specA2)
	if a1 != a2 {
		t.Fatal("same spec modulo seed must hit the cache")
	}
	if a2.Seed != 99 {
		t.Fatalf("cached simulator seed not rewritten: %d", a2.Seed)
	}
}

// TestWarmNetworkKeyedByName checks the per-topology network cache.
func TestWarmNetworkKeyedByName(t *testing.T) {
	warm := NewWarm()
	gs := table1Graphs(64)
	n1 := warm.Network(gs[0])
	n2 := warm.Network(gs[0])
	if n1 != n2 {
		t.Fatal("same topology must hit the cache")
	}
	if warm.Network(gs[2]) == n1 {
		t.Fatal("different topologies must not share a network")
	}
}
