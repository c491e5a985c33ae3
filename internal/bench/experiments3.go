package bench

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
)

// E11Partitionability makes Section 6's multiuser observation
// executable: "if two [LogP] programs run on disjoint sets of
// processors, their executions do not interfere", whereas BSP's global
// barrier couples every processor's supersteps.
//
// Group A (the first half of the machine) runs a light ring workload;
// group B (the second half) is either idle or runs a heavy independent
// workload. Under LogP, group A's finish time must be bit-identical in
// both cases; under BSP, group A's program completes only when the
// shared barriers do, so B's load inflates it.
func E11Partitionability(cfg Config) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Section 6: partitionability — disjoint LogP programs do not interfere; BSP barriers couple",
		Columns: []string{"model", "p", "groupA-T (B idle)", "groupA-T (B heavy)", "interference"},
		Notes:   []string{"interference = T(B heavy) / T(B idle) for group A's processors"},
	}
	pCount := 32
	if cfg.Quick {
		pCount = 16
	}
	half := pCount / 2
	heavyWork := int64(2000)

	// --- LogP ------------------------------------------------------
	lp := logp.Params{P: pCount, L: 16, O: 1, G: 2}
	logpProg := func(heavyB bool) logp.Program {
		return func(p logp.Proc) {
			id := p.ID()
			if id < half {
				// Group A: a ring among processors 0..half-1.
				for k := 0; k < 4; k++ {
					p.Send((id+1)%half, 0, int64(k), 0)
				}
				for k := 0; k < 4; k++ {
					p.Recv()
				}
				return
			}
			if !heavyB {
				return
			}
			// Group B: heavy compute plus its own ring, disjoint
			// from group A.
			p.Compute(heavyWork)
			peer := half + (id-half+1)%half
			for k := 0; k < 8; k++ {
				p.Send(peer, 0, int64(k), 0)
			}
			for k := 0; k < 8; k++ {
				p.Recv()
			}
		}
	}
	groupATime := func(res logp.Result) int64 {
		var m int64
		for i := 0; i < half; i++ {
			if res.ProcTimes[i] > m {
				m = res.ProcTimes[i]
			}
		}
		return m
	}
	idleRes, err := logp.NewMachine(lp, logp.WithSeed(cfg.Seed)).Run(logpProg(false))
	must(err)
	heavyRes, err := logp.NewMachine(lp, logp.WithSeed(cfg.Seed)).Run(logpProg(true))
	must(err)
	aIdle, aHeavy := groupATime(idleRes), groupATime(heavyRes)
	if aIdle != aHeavy {
		panic(fmt.Sprintf("bench E11: LogP groups interfered: %d vs %d", aIdle, aHeavy))
	}
	t.AddRow("LogP", pCount, aIdle, aHeavy, float64(aHeavy)/float64(aIdle))

	// --- BSP -------------------------------------------------------
	// Group A's program needs three supersteps; its completion charge
	// is the whole machine's time through its last barrier, which B's
	// per-superstep work inflates.
	bp := bsp.Params{P: pCount, G: 2, L: 16}
	bspProg := func(heavyB bool) bsp.Program {
		return func(p bsp.Proc) {
			id := p.ID()
			for s := 0; s < 3; s++ {
				if id < half {
					p.Send((id+1)%half, 0, int64(s), 0)
					p.Compute(4)
				} else if heavyB {
					p.Compute(heavyWork)
				}
				p.Sync()
				for {
					if _, ok := p.Recv(); !ok {
						break
					}
				}
			}
		}
	}
	bIdle, err := bsp.NewMachine(bp).Run(bspProg(false))
	must(err)
	bHeavy, err := bsp.NewMachine(bp).Run(bspProg(true))
	must(err)
	t.AddRow("BSP", pCount, bIdle.Time, bHeavy.Time, float64(bHeavy.Time)/float64(bIdle.Time))
	return t
}

// E12ParameterPortability makes Section 6's portability remark
// executable: "In BSP, [a change of machine parameters] will impact
// performance, but not alter correctness. In LogP, the change might
// turn ... stall-free programs into stalling ones."
//
// One fixed program — four processors concurrently sending to a common
// destination — is run under machines with shrinking capacity
// ceil(L/G). The BSP rendering of the same communication is charged
// different times but never changes behaviour.
func E12ParameterPortability(cfg Config) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Section 6: parameter changes — LogP programs turn stalling, BSP programs only change cost",
		Columns: []string{"L", "G", "cap", "logp-stalls", "logp-T", "bsp-T", "result-ok"},
		Notes:   []string{"the fixed program has 4 concurrent messages to one destination: stall-free iff ceil(L/G) >= 4"},
	}
	const pCount = 6
	fanIn := 4
	// Results leave the machines through per-proc slots indexed by the
	// processor id: a slot is private to its writer, so no value moves
	// between simulated processors outside the charged Send/Recv path
	// (the procshare analyzer enforces this discipline).
	logpProg := func(sums []int64) logp.Program {
		return func(p logp.Proc) {
			if p.ID() >= 1 && p.ID() <= fanIn {
				p.Send(0, 0, int64(p.ID()), 0)
				return
			}
			if p.ID() == 0 {
				for i := 0; i < fanIn; i++ {
					sums[p.ID()] += p.Recv().Payload
				}
			}
		}
	}
	bspProg := func(sums []int64) bsp.Program {
		return func(p bsp.Proc) {
			if p.ID() >= 1 && p.ID() <= fanIn {
				p.Send(0, 0, int64(p.ID()), 0)
			}
			p.Sync()
			if p.ID() == 0 {
				for {
					m, ok := p.Recv()
					if !ok {
						break
					}
					sums[p.ID()] += m.Payload
				}
			}
		}
	}
	want := int64(fanIn * (fanIn + 1) / 2)
	for _, params := range []logp.Params{
		{P: pCount, L: 16, O: 1, G: 2},  // capacity 8
		{P: pCount, L: 16, O: 1, G: 4},  // capacity 4
		{P: pCount, L: 16, O: 1, G: 8},  // capacity 2
		{P: pCount, L: 16, O: 2, G: 16}, // capacity 1
	} {
		lsums := make([]int64, pCount)
		lres, err := logp.NewMachine(params, logp.WithSeed(cfg.Seed)).Run(logpProg(lsums))
		must(err)
		bsums := make([]int64, pCount)
		bres, err := bsp.NewMachine(bsp.Params{P: pCount, G: params.G, L: params.L}).Run(bspProg(bsums))
		must(err)
		ok := lsums[0] == want && bsums[0] == want
		t.AddRow(params.L, params.G, params.Capacity(), lres.StallEvents, lres.Time, bres.Time, ok)
	}
	return t
}

// E13LogPOnNetworks completes Section 5's other direction: an
// unmodified LogP program runs on each Table 1 topology through the
// core.LogPOnNet co-simulation (processor pacing by o and G*,
// deliveries decided by the packet network). The LogP support claim is
// per-message: capacity-paced traffic's worst observed latency must
// stay within the derived L*.
func E13LogPOnNetworks(cfg Config) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "Section 5: LogP directly on each topology — observed latency vs derived L*",
		Columns: []string{"topology", "p", "G*", "L*", "max-lat", "mean-lat", "within-L*", "CB-T"},
		Notes:   []string{"workload: capacity-paced neighbor exchange, then the CB collective, both unmodified LogP programs"},
	}
	target := 64
	hs := []int{1, 2, 4, 8}
	if !cfg.Quick {
		target = 256
		hs = []int{1, 2, 4, 8, 16}
	}
	graphs := table1Graphs(target)
	for _, g := range graphs {
		net := cfg.network(g)
		meas := net.MeasureGL(hs, 3, cfg.Seed, false)
		gStar, lStar := meas.LogPParams()
		params := logp.Params{P: g.P(), L: int64(lStar), O: 1, G: int64(gStar)}
		capacity := int(params.Capacity())
		m := core.NewLogPOnNet(params, net)
		res, err := m.Run(func(pr logp.Proc) {
			n := pr.P()
			for k := 1; k <= capacity; k++ {
				pr.Send((pr.ID()+k)%n, 0, 1, 0)
			}
			for k := 1; k <= capacity; k++ {
				pr.Recv()
			}
		})
		must(err)
		m2 := core.NewLogPOnNet(params, net)
		cbRes, err := m2.Run(func(pr logp.Proc) {
			mb := collective.NewMailbox(pr)
			collective.CombineBroadcast(mb, 1, int64(pr.ID()), collective.OpMax)
		})
		must(err)
		t.AddRow(g.Name, g.P(), params.G, params.L, res.MaxMsgLatency, res.MeanMsgLatency,
			res.MaxMsgLatency <= params.L, cbRes.Time)
	}
	return t
}
