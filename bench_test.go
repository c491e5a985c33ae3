package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// One benchmark per reproduced table/figure (see DESIGN.md's
// per-experiment index). Each iteration regenerates the experiment's
// full table; the reported ns/op is the cost of reproducing it.

func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Config{Quick: testing.Short(), Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := e.Run(cfg)
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Engine microbenchmarks ----------------------------------------------

// benchEngine measures the LogP discrete-event core itself on one
// machine reused across iterations (the scheduler heap, slot bitsets,
// and scratch buffers amortize, so allocs/op isolates the per-run
// cost). It reports simulated events per second of wall time.
func benchEngine(b *testing.B, lp logp.Params, prog logp.Program, opts ...logp.Option) {
	b.Helper()
	m := logp.NewMachine(lp, opts...)
	ev0 := logp.SimEventCount()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if el := b.Elapsed().Seconds(); el > 0 {
		b.ReportMetric(float64(logp.SimEventCount()-ev0)/el, "events/sec")
	}
}

// BenchmarkEngineRing is the stall-free pipelined ring: pure scheduler
// and event-heap traffic, one message in flight per processor pair.
func BenchmarkEngineRing(b *testing.B) {
	lp := logp.Params{P: 64, L: 32, O: 2, G: 4}
	benchEngine(b, lp, func(p logp.Proc) {
		n := p.P()
		for k := 0; k < 16; k++ {
			p.Send((p.ID()+1)%n, 0, int64(k), 0)
		}
		for k := 0; k < 16; k++ {
			p.Recv()
		}
	})
}

// BenchmarkEngineHotspot drives the Stalling Rule: every processor
// floods the last one, exercising pending queues, accept passes, and
// the slot window under contention.
func BenchmarkEngineHotspot(b *testing.B) {
	lp := logp.Params{P: 64, L: 8, O: 1, G: 4}
	benchEngine(b, lp, func(p logp.Proc) {
		hot := p.P() - 1
		if p.ID() != hot {
			for k := 0; k < 4; k++ {
				p.Send(hot, 0, int64(k), 0)
			}
			return
		}
		for i := 0; i < (p.P()-1)*4; i++ {
			p.Recv()
		}
	}, logp.WithDeliveryPolicy(logp.DeliverMinLatency))
}

// BenchmarkEngineRandomTraffic stresses the DeliverRandom reservoir
// scan over the slot bitset together with random acceptance order.
func BenchmarkEngineRandomTraffic(b *testing.B) {
	lp := logp.Params{P: 64, L: 32, O: 2, G: 4}
	benchEngine(b, lp, func(p logp.Proc) {
		n := p.P()
		for k := 1; k <= 8; k++ {
			p.Send((p.ID()+k*7)%n, 0, int64(k), 0)
		}
		for k := 1; k <= 8; k++ {
			p.Recv()
		}
	}, logp.WithDeliveryPolicy(logp.DeliverRandom), logp.WithAcceptOrder(logp.AcceptRandom), logp.WithSeed(3))
}

func BenchmarkE1Table1(b *testing.B)           { benchExperiment(b, "E1") }
func BenchmarkE2LogPOnBSP(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3BSPOnLogPDet(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4BSPOnLogPRand(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5CombineBroadcast(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Stalling(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7Observation1(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Offline(b *testing.B)          { benchExperiment(b, "E8") }

// --- Ablations of the design choices DESIGN.md calls out -----------------

// BenchmarkAblationDeliveryPolicy quantifies how the admissible-
// execution choice (Theorem 1's nondeterminism) moves measured LogP
// times for a latency-sensitive collective.
func BenchmarkAblationDeliveryPolicy(b *testing.B) {
	lp := logp.Params{P: 64, L: 32, O: 2, G: 4}
	prog := func(p logp.Proc) {
		mb := collective.NewMailbox(p)
		collective.CombineBroadcast(mb, 1, int64(p.ID()), collective.OpSum)
	}
	for _, pol := range []logp.DeliveryPolicy{logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom} {
		b.Run(pol.String(), func(b *testing.B) {
			m := logp.NewMachine(lp, logp.WithDeliveryPolicy(pol), logp.WithSeed(1))
			var last int64
			for i := 0; i < b.N; i++ {
				res, err := m.Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(float64(last), "logp-time")
		})
	}
}

// BenchmarkAblationCBArity sweeps the CB tree fan-in around the
// paper's choice max(2, ceil(L/G)), exposing the log(1+C) denominator
// of Proposition 2.
func BenchmarkAblationCBArity(b *testing.B) {
	lp := logp.Params{P: 256, L: 32, O: 1, G: 2} // capacity 16
	for _, arity := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("arity-%d", arity), func(b *testing.B) {
			m := logp.NewMachine(lp, logp.WithSeed(1))
			var last int64
			for i := 0; i < b.N; i++ {
				res, err := m.Run(func(p logp.Proc) {
					mb := collective.NewMailbox(p)
					collective.CombineBroadcastArity(mb, 1, int64(p.ID()), collective.OpMax, arity)
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Time
			}
			b.ReportMetric(float64(last), "logp-time")
		})
	}
}

// BenchmarkAblationBatchFactor sweeps Theorem 3's batch inflation
// (1+beta): smaller beta risks stalling, larger beta wastes rounds.
func BenchmarkAblationBatchFactor(b *testing.B) {
	lp := logp.Params{P: 64, L: 16, O: 1, G: 2}
	rng := stats.NewRNG(5)
	rel := relation.RandomRegular(rng, lp.P, 32)
	prog := relationBench(rel)
	for _, beta := range []float64{0.25, 0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("beta-%.2f", beta), func(b *testing.B) {
			var hostT, stalls int64
			for i := 0; i < b.N; i++ {
				sim := &core.BSPOnLogP{LogP: lp, Router: core.RouterRandomized, Seed: uint64(i + 1), Beta: beta}
				res, err := sim.Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				hostT = res.HostTime
				stalls += res.Host.StallEvents
			}
			b.ReportMetric(float64(hostT), "logp-time")
			b.ReportMetric(float64(stalls)/float64(b.N), "stalls/run")
		})
	}
}

// BenchmarkAblationRouter compares the three Theorem 2/3 routers on
// the same workload (the sorter ablation: oblivious-sorting
// deterministic vs randomized batches vs off-line decomposition).
func BenchmarkAblationRouter(b *testing.B) {
	lp := logp.Params{P: 32, L: 16, O: 1, G: 2}
	rng := stats.NewRNG(9)
	rel := relation.RandomRegular(rng, lp.P, 16)
	prog := relationBench(rel)
	for _, router := range []core.Router{core.RouterDeterministic, core.RouterRandomized, core.RouterOffline} {
		b.Run(router.String(), func(b *testing.B) {
			var hostT int64
			for i := 0; i < b.N; i++ {
				sim := &core.BSPOnLogP{LogP: lp, Router: router, Seed: 3}
				res, err := sim.Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				hostT = res.HostTime
			}
			b.ReportMetric(float64(hostT), "logp-time")
		})
	}
}

// BenchmarkAblationCycleLen sweeps Theorem 1's cycle length around the
// paper's L/2.
func BenchmarkAblationCycleLen(b *testing.B) {
	lp := logp.Params{P: 32, L: 32, O: 2, G: 4}
	prog := func(p logp.Proc) {
		mb := collective.NewMailbox(p)
		collective.CombineBroadcast(mb, 1, int64(p.ID()), collective.OpSum)
	}
	for _, div := range []int64{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("L-over-%d", div), func(b *testing.B) {
			var bspT int64
			for i := 0; i < b.N; i++ {
				sim := &core.LogPOnBSP{LogP: lp, CycleLen: lp.L / div}
				res, err := sim.Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				bspT = res.BSPTime
			}
			b.ReportMetric(float64(bspT), "bsp-time")
		})
	}
}

func relationBench(rel relation.Relation) bsp.Program {
	var bySrc relation.Grouping
	bySrc.Group(rel)
	return func(p bsp.Proc) {
		for _, pr := range bySrc.Source(p.ID()) {
			p.Send(pr.Dst, 0, 1, 0)
		}
		p.Sync()
		for {
			if _, ok := p.Recv(); !ok {
				break
			}
		}
	}
}

func BenchmarkE9RadixSkew(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Portability(b *testing.B) { benchExperiment(b, "E10") }

func BenchmarkAblationAcceptOrder(b *testing.B) { benchExperiment(b, "A6") }

func BenchmarkE11Partitionability(b *testing.B)     { benchExperiment(b, "E11") }
func BenchmarkE12ParameterPortability(b *testing.B) { benchExperiment(b, "E12") }

func BenchmarkE13LogPOnNetworks(b *testing.B) { benchExperiment(b, "E13") }
