package bench

import (
	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Warm is a cross-run cache of the expensive simulation state an
// experiment builds before it can measure anything: BSP-on-LogP
// cross-simulators (whose machine/sim/adapter pools already survive
// across Runs of one value), native LogP machines, Theorem 1 replays,
// and packet-network simulators (one Network per topology). RunBench
// gives each experiment its own Warm, so benchmark repetitions past
// the first measure the steady state instead of construction.
//
// A Warm is NOT safe for concurrent use: the cached cross-simulators
// are single-threaded by contract (BSPOnLogP.Run reads its public
// fields un-locked).
//
// Determinism: a cache hit only ever skips allocation, never state.
// BSPOnLogP reseeds its machine on every Run (its cross-Run reuse
// contract, locked by the differential fuzzer), and a Network's
// measurement entry points take their seeds per call, so an
// experiment's table is byte-identical on a cold and a warm cache.
type Warm struct {
	sims     map[simKey]*core.BSPOnLogP
	nets     map[string]*netsim.Network
	machines map[machKey]*logp.Machine
	thm1     map[thm1Key]*core.LogPOnBSP
}

// simKey identifies a cross-simulator by everything that outlives a
// Run. Seed and Beta are deliberately absent: both are per-Run inputs
// the cache rewrites on every fetch, exactly as the seed-sweeping
// experiment loops already do on their own cached values.
type simKey struct {
	lp     logp.Params
	router core.Router
	policy logp.DeliveryPolicy
	sort   core.SortAlgo
	strict bool
}

// machKey identifies a native LogP machine by everything that outlives
// a Run. The seed is deliberately absent: it is a per-Run input the
// cache rewrites on every fetch via SetSeed, which restarts the run
// counter so the warm machine's next Run is byte-identical to a fresh
// machine's first.
type machKey struct {
	lp     logp.Params
	policy logp.DeliveryPolicy
	accept logp.AcceptOrder
}

// thm1Key identifies a Theorem 1 cross-simulator by its public
// configuration; the replay engine behind it is deterministic and
// carries no per-Run inputs.
type thm1Key struct {
	lp       logp.Params
	bp       bsp.Params
	cycleLen int64
	fold     int
}

// NewWarm returns an empty cache.
func NewWarm() *Warm {
	return &Warm{
		sims:     map[simKey]*core.BSPOnLogP{},
		nets:     map[string]*netsim.Network{},
		machines: map[machKey]*logp.Machine{},
		thm1:     map[thm1Key]*core.LogPOnBSP{},
	}
}

// Sim returns a cross-simulator matching spec, reusing a cached one
// when the cache-relevant fields match (Seed and Beta are rewritten on
// the cached value; they are per-Run inputs).
func (w *Warm) Sim(spec core.BSPOnLogP) *core.BSPOnLogP {
	k := simKey{
		lp:     spec.LogP,
		router: spec.Router,
		policy: spec.Policy,
		sort:   spec.Sort,
		strict: spec.StrictStallFree,
	}
	if s, ok := w.sims[k]; ok {
		s.Seed = spec.Seed
		s.Beta = spec.Beta
		return s
	}
	s := new(core.BSPOnLogP)
	*s = spec
	w.sims[k] = s
	return s
}

// Machine returns a native LogP machine for the given configuration,
// reseeded to seed. A warm hit reuses the cached machine's processor
// arena, record slab, and heaps; SetSeed restarts its run counter, so
// the next Run replays exactly the bytes a fresh machine built with
// WithSeed(seed) would produce — the property the scale alloc guards
// rely on.
func (w *Warm) Machine(lp logp.Params, policy logp.DeliveryPolicy, accept logp.AcceptOrder, seed uint64) *logp.Machine {
	k := machKey{lp: lp, policy: policy, accept: accept}
	if m, ok := w.machines[k]; ok {
		// The benchmark harness reseeds between jobs exactly as the
		// engine-family caches do, never mid-run, so the trace always
		// follows the configured seed.
		m.SetSeed(seed)
		return m
	}
	m := logp.NewMachine(lp, logp.WithDeliveryPolicy(policy), logp.WithAcceptOrder(accept), logp.WithSeed(seed))
	w.machines[k] = m
	return m
}

// Thm1 returns a Theorem 1 cross-simulator matching spec, reusing a
// cached one when the public configuration matches; the replay engine
// it retains resets wholesale on every Run.
func (w *Warm) Thm1(spec core.LogPOnBSP) *core.LogPOnBSP {
	k := thm1Key{lp: spec.LogP, bp: spec.BSP, cycleLen: spec.CycleLen, fold: spec.Fold}
	if s, ok := w.thm1[k]; ok {
		return s
	}
	s := new(core.LogPOnBSP)
	*s = spec
	w.thm1[k] = s
	return s
}

// Network returns the packet-network simulator for g, keyed by the
// topology's name (names like "hypercube(64)" identify the instance).
func (w *Warm) Network(g *topology.Graph) *netsim.Network {
	if n, ok := w.nets[g.Name]; ok {
		return n
	}
	n := netsim.New(g)
	w.nets[g.Name] = n
	return n
}

// sim is the experiment-side constructor for cross-simulators: warm
// configs fetch from the cache, everything else keeps the historical
// fresh value.
func (cfg Config) sim(spec core.BSPOnLogP) *core.BSPOnLogP {
	if cfg.Warm != nil {
		return cfg.Warm.Sim(spec)
	}
	s := spec
	return &s
}

// scriptMachine is the experiment-side constructor for the native LogP
// machines the scale scripts run on: warm configs fetch from the cache
// (reseeded), everything else builds the historical fresh machine. The
// two are byte-identical by the WithSeed contract.
func (cfg Config) scriptMachine(lp logp.Params, policy logp.DeliveryPolicy, accept logp.AcceptOrder, seed uint64) *logp.Machine {
	if cfg.Warm != nil {
		return cfg.Warm.Machine(lp, policy, accept, seed)
	}
	return logp.NewMachine(lp, logp.WithDeliveryPolicy(policy), logp.WithAcceptOrder(accept), logp.WithSeed(seed))
}

// thm1 is the experiment-side constructor for Theorem 1 replays.
func (cfg Config) thm1(spec core.LogPOnBSP) *core.LogPOnBSP {
	if cfg.Warm != nil {
		return cfg.Warm.Thm1(spec)
	}
	s := spec
	return &s
}

// network is the experiment-side constructor for packet networks.
func (cfg Config) network(g *topology.Graph) *netsim.Network {
	if cfg.Warm != nil {
		return cfg.Warm.Network(g)
	}
	return netsim.New(g)
}
