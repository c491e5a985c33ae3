package core_test

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Theorem 1: an unmodified LogP program (a tree summation) replayed
// under BSP cost semantics. The result is identical; the BSP charge is
// the sum of cycle costs L/2 + g*h + l.
func ExampleLogPOnBSP_Run() {
	lp := logp.Params{P: 8, L: 16, O: 1, G: 2}
	sums := make([]int64, lp.P)
	prog := func(p logp.Proc) {
		mb := collective.NewMailbox(p)
		sums[p.ID()] = collective.CombineBroadcast(mb, 1, int64(p.ID()), collective.OpSum)
	}
	sim := &core.LogPOnBSP{LogP: lp} // matched host: g = G, l = L
	res, err := sim.Run(prog)
	if err != nil {
		panic(err)
	}
	fmt.Println("sum:", sums[0], "stall-free:", res.CapacityViolations == 0)
	fmt.Printf("guest LogP time %d, BSP charge %d, slowdown %.1fx\n",
		res.GuestTime, res.BSPTime, res.Slowdown())
	// Output:
	// sum: 28 stall-free: true
	// guest LogP time 41, BSP charge 172, slowdown 4.2x
}

// Theorems 2/3: an unmodified BSP program executed on a LogP machine.
// The deterministic router is stall-free; the measured host time over
// the native BSP cost is the slowdown S(L,G,p,h).
func ExampleBSPOnLogP_Run() {
	lp := logp.Params{P: 8, L: 16, O: 1, G: 2}
	got := make([]int64, lp.P)
	prog := func(p bsp.Proc) {
		p.Send((p.ID()+1)%p.P(), 0, int64(p.ID()), 0)
		p.Sync()
		if m, ok := p.Recv(); ok {
			got[p.ID()] = m.Payload
		}
	}
	sim := &core.BSPOnLogP{
		LogP:            lp,
		Router:          core.RouterDeterministic,
		StrictStallFree: true,
	}
	res, err := sim.Run(prog)
	if err != nil {
		panic(err)
	}
	fmt.Println("processor 3 received from:", got[3])
	fmt.Println("supersteps:", res.Supersteps, "stalls:", res.Host.StallEvents)
	// Output:
	// processor 3 received from: 2
	// supersteps: 1 stalls: 0
}

// A LogP program whose message latencies come from the packet network:
// the 0 -> 7 message crosses three hypercube links, so it arrives
// exactly three steps after its injection at time o=1, and the o-cost
// acquisition completes one step later.
func ExampleLogPOnNet_Run() {
	g := topology.Hypercube(8, true)
	m := core.NewLogPOnNet(logp.Params{P: 8, L: 8, O: 1, G: 2}, netsim.New(g))
	res, err := m.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(7, 0, 11, 0)
		case 7:
			msg := p.Recv()
			fmt.Println("payload", msg.Payload, "acquired at", p.Now())
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("worst packet latency:", res.MaxMsgLatency, "hops")
	// Output:
	// payload 11 acquired at 5
	// worst packet latency: 3 hops
}
