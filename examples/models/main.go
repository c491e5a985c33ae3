// Models: the repository's full execution matrix on one computation.
// A global sum of per-processor values runs as
//
//	(1) a BSP program on the abstract BSP machine,
//	(2) a LogP program on the abstract LogP machine,
//	(3) the BSP program on the LogP machine   (Theorem 2),
//	(4) the LogP program on the BSP machine   (Theorem 1),
//	(5) the BSP program on a hypercube packet network (Section 5),
//	(6) the LogP program on the same network  (Section 5),
//
// with every variant verifying the same result — the paper's
// "substantial equivalence for algorithmic design", end to end.
package main

import (
	"fmt"
	"log"

	"repro/internal/bsp"
	"repro/internal/bsputil"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/netrun"
	"repro/internal/netsim"
	"repro/internal/topology"
)

const p = 16

func main() {
	values := make([]int64, p)
	var want int64
	for i := range values {
		values[i] = int64(i*i + 3)
		want += values[i]
	}

	bspProg := func(out []int64) bsp.Program {
		return func(pr bsp.Proc) {
			out[pr.ID()] = bsputil.AllReduce(pr, 1, bsputil.OpSum, values[pr.ID()])
		}
	}
	logpProg := func(out []int64) logp.Program {
		return func(pr logp.Proc) {
			mb := collective.NewMailbox(pr)
			out[pr.ID()] = collective.CombineBroadcast(mb, 1, values[pr.ID()], collective.OpSum)
		}
	}
	check := func(label string, out []int64) {
		for i, v := range out {
			if v != want {
				log.Fatalf("%s: processor %d computed %d, want %d", label, i, v, want)
			}
		}
	}

	lp := logp.Params{P: p, L: 16, O: 1, G: 2}
	bp := bsp.Params{P: p, G: lp.G, L: lp.L}
	cube := topology.Hypercube(p, true)

	fmt.Printf("global sum of %d values, want %d; p = %d\n\n", p, want, p)
	fmt.Printf("%-34s %-10s %s\n", "substrate", "T", "notes")

	row := func(label string, t int64, notes string) {
		fmt.Printf("%-34s %-10d %s\n", label, t, notes)
	}

	// (1) abstract BSP.
	out := make([]int64, p)
	r1, err := bsp.NewMachine(bp).Run(bspProg(out))
	if err != nil {
		log.Fatal(err)
	}
	check("bsp", out)
	row("BSP machine", r1.Time, fmt.Sprintf("%d supersteps of w+g*h+l", r1.Supersteps))

	// (2) abstract LogP.
	out = make([]int64, p)
	r2, err := logp.NewMachine(lp, logp.WithStrictStallFree()).Run(logpProg(out))
	if err != nil {
		log.Fatal(err)
	}
	check("logp", out)
	row("LogP machine", r2.Time, "CB tree, stall-free")

	// (3) BSP program on LogP (Theorem 2).
	out = make([]int64, p)
	r3, err := (&core.BSPOnLogP{LogP: lp, Router: core.RouterDeterministic, Seed: 1, StrictStallFree: true}).Run(bspProg(out))
	if err != nil {
		log.Fatal(err)
	}
	check("bsp-on-logp", out)
	row("BSP program on LogP (Thm 2)", r3.HostTime, fmt.Sprintf("slowdown %.1fx, stall-free", r3.Slowdown()))

	// (4) LogP program on BSP (Theorem 1).
	out = make([]int64, p)
	r4, err := (&core.LogPOnBSP{LogP: lp}).Run(logpProg(out))
	if err != nil {
		log.Fatal(err)
	}
	check("logp-on-bsp", out)
	row("LogP program on BSP (Thm 1)", r4.BSPTime, fmt.Sprintf("slowdown %.1fx, capacity respected", r4.Slowdown()))

	// (5) BSP program on the hypercube network (Section 5).
	out = make([]int64, p)
	r5, err := netrun.NewMachine(netsim.New(cube)).Run(bspProg(out))
	if err != nil {
		log.Fatal(err)
	}
	check("bsp-on-network", out)
	row("BSP program on hypercube", r5.Time, "supersteps routed packet-by-packet")

	// (6) LogP program on the hypercube network (Section 5).
	out = make([]int64, p)
	r6, err := core.NewLogPOnNet(lp, netsim.New(cube)).Run(logpProg(out))
	if err != nil {
		log.Fatal(err)
	}
	check("logp-on-network", out)
	row("LogP program on hypercube", r6.Time, fmt.Sprintf("worst packet latency %d", r6.MaxMsgLatency))

	fmt.Println("\nall six substrates computed the same sum — one algorithm, two models,")
	fmt.Println("cross-simulated both ways and grounded on a concrete network.")
}
