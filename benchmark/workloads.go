package main

import (
	"fmt"
	"math"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/netsim"
	"repro/internal/relation"
	"repro/internal/stats"
	"repro/internal/topology"
)

// A workload is built once per set-up and then runs numbered ops. An op
// draws its inputs from (seed, op index) alone, appends its simulated
// outputs to env.out for the digest, and returns an error when a run
// fails or an invariant that holds for every seed breaks.
type workload struct {
	name, why string
	// audit marks workloads whose ops run logp machines: the check
	// phase re-runs op 0 under the streaming invariant auditor.
	audit bool
	// seeded is false for workloads that take no random inputs.
	seeded bool
	build  func(seed uint64, env *opEnv) runner
}

type runner interface {
	op(i int, env *opEnv) error
}

// The five workloads. Each stresses a different layer, so a change to
// one layer should move its own workload and leave the others flat.
var workloads = []workload{
	{
		name:   "thm2-routers-p64",
		why:    "Theorem 2/3 routers on the coroutine Program engine: core routers plus logp, no Script engine or netsim",
		audit:  true,
		seeded: true,
		build:  func(seed uint64, env *opEnv) runner { return newThm2Routers(64, []int{1, 4, 16, 32}, seed) },
	},
	{
		name:  "route-script-p8k",
		why:   "stall-free cyclic-shift route plus CB barrier on the logp Script engine and arena: no core, relation or netsim",
		audit: true,
		build: func(seed uint64, env *opEnv) runner { return newRouteBarrier(8192, env) },
	},
	{
		name:   "randroute-script-p8k",
		why:    "randomized route on the Script engine: random slots, random acceptance and stalls, plus relation stream draws",
		audit:  true,
		seeded: true,
		build:  func(seed uint64, env *opEnv) runner { return newRandRoute(8192, 8, seed) },
	},
	{
		name:  "thm1-replay-p32k",
		why:   "Theorem 1 cycle engine replaying a ring and a broadcast: core only, no logp machine runs",
		build: func(seed uint64, env *opEnv) runner { return newThm1Replay(32768) },
	},
	{
		name:   "netsim-gl-p256",
		why:    "Table 1 g/l fits on eight topologies: only the packet router and topology run, the control for logp changes",
		seeded: true,
		build:  func(seed uint64, env *opEnv) runner { return newNetsimGL(256, 3, seed, env) },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeed derives the input seed of op i from the run seed with the
// SplitMix64 finalizer, so neighbouring ops draw unrelated inputs.
func opSeed(seed uint64, i int) uint64 {
	x := seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// --- thm2-routers ---------------------------------------------------------

// thm2Routers routes random regular h-relations through the three
// BSP-on-LogP routers, the shape of the regular suite's E3/E4/E8/A4.
type thm2Routers struct {
	p        int
	hs       []int
	seed     uint64
	det, rnd core.BSPOnLogP
	off      core.BSPOnLogP
	bySrc    relation.Grouping
	work     int64
	routers  []namedRouter
}

type namedRouter struct {
	span string
	sim  *core.BSPOnLogP
}

func newThm2Routers(p int, hs []int, seed uint64) *thm2Routers {
	lp := logp.Params{P: p, L: 16, O: 1, G: 2}
	w := &thm2Routers{
		p:    p,
		hs:   hs,
		seed: seed,
		det:  core.BSPOnLogP{LogP: lp, Router: core.RouterDeterministic, Seed: seed, StrictStallFree: true},
		rnd:  core.BSPOnLogP{LogP: lp, Router: core.RouterRandomized, Beta: 1},
		off:  core.BSPOnLogP{LogP: lp, Router: core.RouterOffline, Seed: seed, StrictStallFree: true},
	}
	w.routers = []namedRouter{{"core.det.Run", &w.det}, {"core.rand.Run", &w.rnd}, {"core.offline.Run", &w.off}}
	return w
}

// program is a one-superstep BSP program realizing the grouped
// relation, charging w.work local operations per processor.
func (w *thm2Routers) program(p bsp.Proc) {
	for _, pr := range w.bySrc.Source(p.ID()) {
		p.Send(pr.Dst, 0, int64(pr.Dst), 0)
	}
	p.Compute(w.work)
	p.Sync()
	for {
		if _, ok := p.Recv(); !ok {
			return
		}
	}
}

func (w *thm2Routers) op(i int, env *opEnv) error {
	rng := stats.NewRNG(opSeed(w.seed, i))
	w.rnd.Seed = opSeed(w.seed^0x5bd1e995, i)
	for _, h := range w.hs {
		s := env.begin("relation.RandomRegular", "relation")
		rel := relation.RandomRegular(rng, w.p, h)
		env.end(s)
		s = env.begin("relation.Grouping.Group", "relation")
		w.bySrc.Group(rel)
		env.end(s)
		env.c.pairs += int64(len(rel.Pairs))
		routed := int64(0)
		for _, pr := range rel.Pairs {
			if pr.Src != pr.Dst {
				routed++
			}
		}
		for _, r := range w.routers {
			w.work = 0
			if r.sim == &w.det {
				w.work = int64(h) // as in E3, the deterministic run charges work h
			}
			s := env.begin(r.span, "core")
			res, err := r.sim.Run(w.program)
			env.end(s)
			if err != nil {
				return fmt.Errorf("%s h=%d: %w", r.span, h, err)
			}
			env.put(res.HostTime, res.GuestTime, res.MessagesRouted, res.Host.StallEvents)
			env.c.stallEvents += res.Host.StallEvents
			if r.sim == &w.rnd {
				env.c.randRuns++
				if res.Host.StallEvents > 0 {
					env.c.randStallRuns++
				}
			}
			if res.MessagesRouted != routed {
				return fmt.Errorf("%s h=%d: routed %d messages, relation has %d", r.span, h, res.MessagesRouted, routed)
			}
			if r.sim == &w.det && res.Host.StallEvents != 0 {
				return fmt.Errorf("%s h=%d: deterministic router stalled %d times", r.span, h, res.Host.StallEvents)
			}
		}
	}
	return nil
}

// --- route-script ---------------------------------------------------------

// routeBarrier is one E15 superstep on a reused machine: a windowed
// cyclic-shift h-relation, then the d-ary CB barrier. It takes no
// random inputs: its cost does not depend on a draw.
type routeBarrier struct {
	p, h    int
	m       *logp.Machine
	route   *routeScript
	barrier *barrierScript
}

func newRouteBarrier(p int, env *opEnv) *routeBarrier {
	lp := logp.Params{P: p, L: 32, O: 2, G: 4}
	capacity := int(lp.Capacity())
	s := env.begin("collective.TreeArity", "collective")
	d := collective.TreeArity(lp)
	env.end(s)
	s = env.begin("logp.NewMachine", "logp")
	m := logp.NewMachine(lp)
	env.end(s)
	return &routeBarrier{
		p: p, h: capacity, m: m,
		route:   newRouteScript(p, capacity, capacity),
		barrier: newBarrierScript(p, d),
	}
}

func (w *routeBarrier) op(_ int, env *opEnv) error {
	w.route.reset()
	s := env.begin("logp.RunScript", "logp")
	route, err := w.m.RunScript(w.route)
	env.end(s)
	if err != nil {
		return fmt.Errorf("route: %w", err)
	}
	w.barrier.reset()
	s = env.begin("logp.RunScript", "logp")
	barrier, err := w.m.RunScript(w.barrier)
	env.end(s)
	if err != nil {
		return fmt.Errorf("barrier: %w", err)
	}
	env.put(route.Time, route.StallEvents, barrier.Time, barrier.StallEvents)
	env.c.stallEvents += route.StallEvents + barrier.StallEvents
	if route.StallEvents != 0 {
		return fmt.Errorf("route stalled %d times", route.StallEvents)
	}
	if want := int64(w.p * w.h); route.MessagesSent != want {
		return fmt.Errorf("route sent %d messages, want %d", route.MessagesSent, want)
	}
	if want := int64(2 * (w.p - 1)); barrier.MessagesSent != want {
		return fmt.Errorf("barrier sent %d messages, want %d", barrier.MessagesSent, want)
	}
	return nil
}

// --- randroute-script -----------------------------------------------------

// randRoute is E16's randomized route: fresh random permutations per op
// routed under DeliverRandom/AcceptRandom, capacity 20 >= log2 p.
type randRoute struct {
	p, h   int
	seed   uint64
	m      *logp.Machine
	rel    relation.RandomRegularStream
	script *randScript
	rng    stats.RNG
}

func newRandRoute(p, h int, seed uint64) *randRoute {
	lp := logp.Params{P: p, L: 40, O: 1, G: 2}
	w := &randRoute{
		p: p, h: h, seed: seed,
		m: logp.NewMachine(lp, logp.WithDeliveryPolicy(logp.DeliverRandom),
			logp.WithAcceptOrder(logp.AcceptRandom), logp.WithSeed(seed)),
	}
	w.script = newRandScript(p, h, 8, &w.rel)
	return w
}

func (w *randRoute) op(i int, env *opEnv) error {
	w.rng.Reseed(opSeed(w.seed, i))
	s := env.begin("relation.RandomRegularStream.Reset", "relation")
	w.rel.Reset(&w.rng, w.p, w.h)
	env.end(s)
	env.c.pairs += int64(w.p * w.h)
	w.script.reset()
	s = env.begin("logp.RunScript", "logp")
	res, err := w.m.RunScript(w.script)
	env.end(s)
	if err != nil {
		return err
	}
	env.put(res.Time, res.StallEvents)
	env.c.stallEvents += res.StallEvents
	want := int64(0)
	for k := 0; k < w.h; k++ {
		for src := 0; src < w.p; src++ {
			if w.rel.Pair(src, k).Dst != src {
				want++
			}
		}
	}
	if res.MessagesSent != want {
		return fmt.Errorf("sent %d messages, relation has %d", res.MessagesSent, want)
	}
	return nil
}

// --- thm1-replay ----------------------------------------------------------

// thm1Replay runs E14's Theorem 1 replay on BSP with matched g = G,
// l = L: a 2-round ring and a span-halving broadcast, both stall-free,
// on one reused cycle engine. It takes no random inputs.
type thm1Replay struct {
	p     int
	sim   core.LogPOnBSP
	ring  *ringScript
	bcast *bcastScript
}

func newThm1Replay(p int) *thm1Replay {
	return &thm1Replay{
		p:     p,
		sim:   core.LogPOnBSP{LogP: logp.Params{P: p, L: 32, O: 2, G: 4}},
		ring:  newRingScript(p, 2),
		bcast: newBcastScript(p),
	}
}

func (w *thm1Replay) op(_ int, env *opEnv) error {
	w.ring.reset()
	w.bcast.reset()
	for _, sc := range []struct {
		name   string
		script logp.Script
		msgs   int64
	}{
		{"ring", w.ring, int64(2 * w.p)},
		{"bcast", w.bcast, int64(w.p - 1)},
	} {
		s := env.begin("core.LogPOnBSP.RunScript", "core")
		res, err := w.sim.RunScript(sc.script)
		env.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		env.put(res.BSPTime, res.Cycles, res.MaxCycleH, res.CapacityViolations)
		env.c.thm1Msgs += res.MessagesSent
		env.c.thm1Cycles += res.Cycles
		env.c.thm1Overloaded += res.CapacityViolations
		if res.CapacityViolations != 0 {
			return fmt.Errorf("%s: %d cycles over capacity in a stall-free program", sc.name, res.CapacityViolations)
		}
		if res.MessagesSent != sc.msgs {
			return fmt.Errorf("%s: sent %d messages, want %d", sc.name, res.MessagesSent, sc.msgs)
		}
	}
	return nil
}

// --- netsim-gl ------------------------------------------------------------

// netsimGL fits g and l on the eight Table 1 topologies near p = target
// (E1's full-mode grid with fewer trials). Networks are built in set-up;
// each op measures every one with the op's seed.
type netsimGL struct {
	seed   uint64
	trials int
	nets   []*netsim.Network
}

var glHs = []int{1, 2, 4, 8, 16}

func newNetsimGL(target, trials int, seed uint64, env *opEnv) *netsimGL {
	lg := 0
	for v := 1; v < target; v <<= 1 {
		lg++
	}
	side := 1
	for side*side < target {
		side *= 2
	}
	side3 := 1
	for side3*side3*side3 < target {
		side3++
	}
	ctors := []func() *topology.Graph{
		func() *topology.Graph { return topology.Array(side, 2, false) },
		func() *topology.Graph { return topology.Array(side3, 3, false) },
		func() *topology.Graph { return topology.Hypercube(1<<lg, true) },
		func() *topology.Graph { return topology.Hypercube(1<<lg, false) },
		func() *topology.Graph { return topology.Butterfly(lg - 2) },
		func() *topology.Graph { return topology.CCC(lg - 2) },
		func() *topology.Graph { return topology.ShuffleExchange(lg) },
		func() *topology.Graph { return topology.MeshOfTrees(side) },
	}
	w := &netsimGL{seed: seed, trials: trials}
	for _, ctor := range ctors {
		s := env.begin("topology.build", "topology")
		g := ctor()
		env.end(s)
		s = env.begin("netsim.New", "netsim")
		w.nets = append(w.nets, netsim.New(g))
		env.end(s)
	}
	return w
}

func (w *netsimGL) op(i int, env *opEnv) error {
	seed := opSeed(w.seed, i)
	for _, net := range w.nets {
		s := env.begin("netsim.MeasureGL", "netsim")
		m := net.MeasureGL(glHs, w.trials, seed, false)
		env.end(s)
		env.putFloat(m.G)
		env.putFloat(m.L)
		env.putFloat(m.R2)
		if !(m.G > 0) || math.IsInf(m.G, 0) || math.IsNaN(m.L) || !(m.R2 >= 0 && m.R2 <= 1+1e-9) {
			return fmt.Errorf("%s: implausible fit g=%v l=%v R2=%v", m.Topology, m.G, m.L, m.R2)
		}
	}
	return nil
}
