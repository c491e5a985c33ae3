package bench

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// The A-series experiments quantify the design choices DESIGN.md calls
// out for ablation. They are included in All() so the CLI regenerates
// them alongside the paper's tables.

// A1DeliveryPolicy measures how the admissible-execution choice (the
// delivery-time nondeterminism of Section 2.2) moves the measured time
// of latency-sensitive programs, and confirms results are unchanged.
func A1DeliveryPolicy(cfg Config) *Table {
	t := &Table{
		ID:      "A1",
		Title:   "Ablation: delivery-time policy (LogP nondeterminism)",
		Columns: []string{"program", "p", "policy", "T-meas", "result"},
		Notes:   []string{"results must agree across policies; only times may move"},
	}
	pCount := 64
	if cfg.Quick {
		pCount = 16
	}
	lp := logp.Params{P: pCount, L: 32, O: 2, G: 4}
	// Each program reports through a per-proc slot indexed by the
	// processor id (the procshare discipline: no captured state is
	// shared between simulated processors), and names the slot the
	// caller should read.
	programs := []struct {
		name    string
		want    int64
		readOut int
		prog    func(out []int64) logp.Program
	}{
		{"cb-sum", int64(pCount * (pCount - 1) / 2), 0, func(out []int64) logp.Program {
			return func(p logp.Proc) {
				mb := collective.NewMailbox(p)
				v := collective.CombineBroadcast(mb, 1, int64(p.ID()), collective.OpSum)
				if p.ID() == 0 {
					out[p.ID()] = v
				}
			}
		}},
		{"bcast", 424242, pCount - 1, func(out []int64) logp.Program {
			sched := collective.BuildBroadcastSchedule(lp, 0)
			return func(p logp.Proc) {
				mb := collective.NewMailbox(p)
				x := int64(0)
				if p.ID() == 0 {
					x = 424242
				}
				v := collective.RunBroadcast(mb, 2, sched, x)
				if p.ID() == pCount-1 {
					out[p.ID()] = v
				}
			}
		}},
	}
	for _, pr := range programs {
		for _, pol := range []logp.DeliveryPolicy{logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom} {
			out := make([]int64, pCount)
			m := logp.NewMachine(lp, logp.WithDeliveryPolicy(pol), logp.WithSeed(cfg.Seed))
			res, err := m.Run(pr.prog(out))
			must(err)
			if out[pr.readOut] != pr.want {
				panic(fmt.Sprintf("bench A1: %s under %v computed %d, want %d", pr.name, pol, out[pr.readOut], pr.want))
			}
			t.AddRow(pr.name, pCount, pol.String(), res.Time, out[pr.readOut])
		}
	}
	return t
}

// A2CBArity sweeps the CB tree fan-in around the paper's choice
// max(2, ceil(L/G)), exposing Proposition 2's log(1+C) denominator.
func A2CBArity(cfg Config) *Table {
	t := &Table{
		ID:      "A2",
		Title:   "Ablation: Combine-and-Broadcast tree arity (paper: max(2, ceil(L/G)))",
		Columns: []string{"p", "L", "G", "arity", "T-meas", "stalls"},
		Notes:   []string{"the paper's arity equals the capacity 16 here; wider is impossible within the capacity bound"},
	}
	pCount := 256
	if cfg.Quick {
		pCount = 64
	}
	lp := logp.Params{P: pCount, L: 32, O: 1, G: 2} // capacity 16
	for _, arity := range []int{2, 4, 8, 16} {
		m := logp.NewMachine(lp, logp.WithSeed(cfg.Seed))
		res, err := m.Run(func(p logp.Proc) {
			mb := collective.NewMailbox(p)
			collective.CombineBroadcastArity(mb, 1, int64(p.ID()), collective.OpMax, arity)
		})
		must(err)
		t.AddRow(pCount, lp.L, lp.G, arity, res.Time, res.StallEvents)
	}
	return t
}

// A3BatchFactor sweeps Theorem 3's inflation factor (1+beta): smaller
// beta risks stalling cleanup phases, larger beta wastes rounds.
func A3BatchFactor(cfg Config) *Table {
	t := &Table{
		ID:      "A3",
		Title:   "Ablation: randomized-router batch inflation (Theorem 3's 1+beta)",
		Columns: []string{"p", "h", "beta", "rounds", "host-T", "stall-events"},
	}
	pCount := 64
	seeds := 3
	if cfg.Quick {
		pCount = 32
		seeds = 2
	}
	lp := logp.Params{P: pCount, L: 16, O: 1, G: 2}
	h := pCount / 2
	rng := stats.NewRNG(cfg.Seed)
	rel := relation.RandomRegular(rng, pCount, h)
	sim := cfg.sim(core.BSPOnLogP{LogP: lp, Router: core.RouterRandomized})
	for _, beta := range []float64{0.25, 0.5, 1, 2, 4} {
		var worst int64
		var stalls int64
		for s := 0; s < seeds; s++ {
			sim.Seed = cfg.Seed + uint64(s)
			sim.Beta = beta
			res, err := sim.Run(relationProgram(rel, 0))
			must(err)
			if res.HostTime > worst {
				worst = res.HostTime
			}
			stalls += res.Host.StallEvents
		}
		rounds := stats.Theorem3Rounds(h, int(lp.Capacity()), beta)
		t.AddRow(pCount, h, beta, rounds, worst, stalls)
	}
	return t
}

// A4Sorter compares the deterministic router's two oblivious sorters
// (bitonic vs columnsort) and the off-line router across the relation
// degree, locating the crossover the paper places between the AKS and
// Cubesort regimes.
func A4Sorter(cfg Config) *Table {
	t := &Table{
		ID:      "A4",
		Title:   "Ablation: oblivious sorter in the deterministic router (AKS->bitonic vs Cubesort->columnsort)",
		Columns: []string{"p", "h", "bitonic-T", "columnsort-T", "offline-T"},
		Notes:   []string{"columnsort pads r up to 2(p-1)^2, so it loses badly for small h and becomes competitive as h approaches that threshold"},
	}
	pCount := 8
	hs := []int{1, 4, 16, 64, 98}
	if cfg.Quick {
		pCount = 4
		hs = []int{1, 4, 18}
	}
	lp := logp.Params{P: pCount, L: 16, O: 1, G: 2}
	rng := stats.NewRNG(cfg.Seed)
	for _, h := range hs {
		rel := relation.RandomRegular(rng, pCount, h)
		prog := relationProgram(rel, 0)
		times := map[string]int64{}
		for _, variant := range []struct {
			name   string
			router core.Router
			sort   core.SortAlgo
		}{
			{"bitonic", core.RouterDeterministic, core.SortBitonic},
			{"columnsort", core.RouterDeterministic, core.SortColumnsort},
			{"offline", core.RouterOffline, core.SortAuto},
		} {
			sim := cfg.sim(core.BSPOnLogP{LogP: lp, Router: variant.router, Sort: variant.sort, Seed: cfg.Seed, StrictStallFree: true})
			res, err := sim.Run(prog)
			must(err)
			times[variant.name] = res.HostTime
		}
		t.AddRow(pCount, h, times["bitonic"], times["columnsort"], times["offline"])
	}
	return t
}

// A5CycleLen sweeps Theorem 1's cycle length around the paper's L/2.
func A5CycleLen(cfg Config) *Table {
	t := &Table{
		ID:      "A5",
		Title:   "Ablation: Theorem 1 cycle length (paper: L/2)",
		Columns: []string{"p", "cycle", "cycles", "BSP-T", "slowdown", "stall-free"},
		Notes:   []string{"longer cycles amortize the barrier l but risk capacity violations; L/2 is the longest stall-free-safe choice"},
	}
	pCount := 32
	if cfg.Quick {
		pCount = 16
	}
	lp := logp.Params{P: pCount, L: 32, O: 2, G: 4}
	prog := func(p logp.Proc) {
		mb := collective.NewMailbox(p)
		collective.CombineBroadcast(mb, 1, int64(p.ID()), collective.OpSum)
	}
	m := logp.NewMachine(lp, logp.WithSeed(cfg.Seed))
	nat, err := m.Run(prog)
	must(err)
	for _, div := range []int64{1, 2, 4, 8} {
		// The ablation sweeps the Theorem 1 cycle length as fractions
		// of L — a simulation knob being varied, not a cost charge.
		//lint:ignore costcharge ablation sweeps the cycle length as fractions of L
		cycleLen := lp.L / div
		sim := &core.LogPOnBSP{LogP: lp, CycleLen: cycleLen}
		res, err := sim.Run(prog)
		must(err)
		t.AddRow(pCount, cycleLen, res.Cycles, res.BSPTime,
			float64(res.BSPTime)/float64(nat.Time), res.CapacityViolations == 0)
	}
	return t
}

// A6AcceptOrder sweeps the Stalling Rule's acceptance order, which the
// paper leaves "completely unspecified": total hot-spot throughput is
// order-independent (the rule fixes only the count min(k,s)), but the
// distribution of stall cycles over senders is not.
func A6AcceptOrder(cfg Config) *Table {
	t := &Table{
		ID:      "A6",
		Title:   "Ablation: Stalling Rule acceptance order (paper: unspecified)",
		Columns: []string{"p", "h", "order", "T-meas", "stall-cycles", "max-proc-stall"},
		Notes:   []string{"wall time is order-insensitive (the hot spot drains at 1/G); only who waits changes"},
	}
	senders := 6
	perSender := 8
	if cfg.Quick {
		perSender = 4
	}
	pCount := senders + 1
	h := senders * perSender
	lp := logp.Params{P: pCount, L: 8, O: 1, G: 4}
	prog := func(p logp.Proc) {
		if p.ID() < senders {
			for k := 0; k < perSender; k++ {
				p.Send(senders, 0, int64(k), 0)
			}
			return
		}
		for i := 0; i < h; i++ {
			p.Recv()
		}
	}
	for _, ord := range []logp.AcceptOrder{logp.AcceptFIFO, logp.AcceptLIFO, logp.AcceptRandom} {
		// Track the worst per-sender stall via the trace.
		perProc := make(map[int]int64)
		submits := make(map[int64]int64)
		m := logp.NewMachine(lp,
			logp.WithAcceptOrder(ord),
			logp.WithDeliveryPolicy(logp.DeliverMinLatency),
			logp.WithSeed(cfg.Seed),
			logp.WithEventLog(func(e logp.Event) {
				switch e.Kind {
				case logp.EvSubmit:
					submits[e.Seq] = e.Time
				case logp.EvAccept:
					perProc[e.Msg.Src] += e.Time - submits[e.Seq]
				}
			}))
		res, err := m.Run(prog)
		must(err)
		var worst int64
		for _, v := range perProc {
			if v > worst {
				worst = v
			}
		}
		t.AddRow(pCount, h, ord.String(), res.Time, res.StallCycles, worst)
	}
	return t
}
