package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/logp"
)

var allRouters = []Router{RouterDeterministic, RouterRandomized, RouterOffline}

var corePolicies = []logp.DeliveryPolicy{
	logp.DeliverMaxLatency, logp.DeliverMinLatency, logp.DeliverRandom,
}

// exchangeProgram is a three-superstep BSP program with data-dependent
// traffic: a total exchange, then a shift by received sums, then a
// gather to processor 0. outs collects per-processor observations.
func exchangeProgram(outs [][]int64) bsp.Program {
	return func(p bsp.Proc) {
		n := p.P()
		id := p.ID()
		// Superstep 0: everyone sends id*10+j to processor j.
		for j := 0; j < n; j++ {
			if j != id {
				p.Send(j, 1, int64(id*10+j), int64(id))
			}
		}
		p.Compute(int64(5 * n))
		p.Sync()
		// Superstep 1: sum what arrived, send the sum to (id+1)%n.
		var sum int64
		for {
			m, ok := p.Recv()
			if !ok {
				break
			}
			if m.Tag != 1 {
				panic("wrong tag in superstep 1")
			}
			sum += m.Payload
		}
		p.Send((id+1)%n, 2, sum, 0)
		p.Compute(3)
		p.Sync()
		// Superstep 2: forward the received sum to processor 0.
		m, ok := p.Recv()
		if !ok {
			panic("missing shift message")
		}
		if id != 0 {
			p.Send(0, 3, m.Payload, int64(id))
		} else {
			outs[0] = append(outs[0], m.Payload)
		}
		p.Sync()
		// Superstep 3: processor 0 collects.
		if id == 0 {
			for {
				m, ok := p.Recv()
				if !ok {
					break
				}
				outs[0] = append(outs[0], m.Payload)
			}
		}
	}
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func TestBSPOnLogPMatchesNativeBSP(t *testing.T) {
	lp := logp.Params{P: 8, L: 16, O: 2, G: 4}
	nativeOuts := make([][]int64, lp.P)
	nres, err := bsp.NewMachine(bsp.Params{P: lp.P, G: lp.G, L: lp.L}).Run(exchangeProgram(nativeOuts))
	if err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(nativeOuts[0])
	for _, router := range allRouters {
		for _, pol := range corePolicies {
			name := fmt.Sprintf("%v/%v", router, pol)
			outs := make([][]int64, lp.P)
			sim := &BSPOnLogP{LogP: lp, Router: router, Policy: pol, Seed: 42}
			res, err := sim.Run(exchangeProgram(outs))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := sortedCopy(outs[0])
			if len(got) != len(want) {
				t.Fatalf("%s: got %d values, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: value %d = %d, want %d", name, i, got[i], want[i])
				}
			}
			// Guest accounting must match the native machine.
			if res.GuestTime != nres.Time {
				t.Fatalf("%s: guest time %d, native BSP time %d", name, res.GuestTime, nres.Time)
			}
			if res.Supersteps != nres.Supersteps {
				t.Fatalf("%s: %d supersteps, native %d", name, res.Supersteps, nres.Supersteps)
			}
			if res.HostTime <= 0 {
				t.Fatalf("%s: host time %d", name, res.HostTime)
			}
		}
	}
}

func TestBSPOnLogPDeterministicStallFree(t *testing.T) {
	// Theorem 2 claims a stall-free simulation; certify it across
	// parameter regimes (capacity 1 through 16) and policies.
	paramSets := []logp.Params{
		{P: 8, L: 8, O: 2, G: 8},  // capacity 1
		{P: 8, L: 16, O: 2, G: 8}, // capacity 2
		{P: 8, L: 16, O: 1, G: 2}, // capacity 8
		{P: 4, L: 32, O: 1, G: 2}, // capacity 16
		{P: 4, L: 16, O: 1, G: 2}, // capacity 8
	}
	for _, lp := range paramSets {
		for _, pol := range corePolicies {
			for _, algo := range []SortAlgo{SortBitonic, SortColumnsort} {
				outs := make([][]int64, lp.P)
				sim := &BSPOnLogP{LogP: lp, Router: RouterDeterministic, Policy: pol, Sort: algo, Seed: 7, StrictStallFree: true}
				if _, err := sim.Run(exchangeProgram(outs)); err != nil {
					t.Fatalf("%v %v %v: %v", lp, pol, algo, err)
				}
			}
		}
	}
}

func TestBSPOnLogPOfflineStallFree(t *testing.T) {
	for _, lp := range []logp.Params{
		{P: 9, L: 8, O: 2, G: 8},
		{P: 8, L: 16, O: 1, G: 2},
	} {
		outs := make([][]int64, lp.P)
		sim := &BSPOnLogP{LogP: lp, Router: RouterOffline, Policy: logp.DeliverRandom, Seed: 3, StrictStallFree: true}
		if _, err := sim.Run(exchangeProgram(outs)); err != nil {
			t.Fatalf("%v: %v", lp, err)
		}
	}
}

func TestBSPOnLogPRandomizedUsuallyStallFree(t *testing.T) {
	// With capacity >= log2(p), Theorem 3 predicts stall-free
	// executions with high probability; check stall events stay rare
	// across seeds.
	lp := logp.Params{P: 16, L: 32, O: 1, G: 2} // capacity 16 >= log2(16)
	stalls := int64(0)
	runs := 5
	for seed := 0; seed < runs; seed++ {
		outs := make([][]int64, lp.P)
		sim := &BSPOnLogP{LogP: lp, Router: RouterRandomized, Seed: uint64(seed), Beta: 1}
		res, err := sim.Run(exchangeProgram(outs))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		stalls += res.Host.StallEvents
	}
	if stalls > int64(runs) {
		t.Fatalf("randomized router stalled %d times over %d runs", stalls, runs)
	}
}

func TestBSPOnLogPUnevenTermination(t *testing.T) {
	lp := logp.Params{P: 8, L: 16, O: 2, G: 4}
	prog := func(p bsp.Proc) {
		for s := 0; s <= p.ID(); s++ {
			p.Compute(2)
			if s == p.ID() && p.ID() > 0 {
				p.Send(p.ID()-1, 0, int64(p.ID()), 0)
			}
			p.Sync()
		}
	}
	for _, router := range allRouters {
		sim := &BSPOnLogP{LogP: lp, Router: router, Seed: 9}
		res, err := sim.Run(prog)
		if err != nil {
			t.Fatalf("%v: %v", router, err)
		}
		// Native comparison.
		nres, err := bsp.NewMachine(bsp.Params{P: lp.P, G: lp.G, L: lp.L}).Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.GuestTime != nres.Time {
			t.Fatalf("%v: guest accounting %d, native %d", router, res.GuestTime, nres.Time)
		}
	}
}

func TestBSPOnLogPSelfSendsStayLocal(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	var got [4]int64
	prog := func(p bsp.Proc) {
		p.Send(p.ID(), 0, int64(100+p.ID()), 0)
		p.Sync()
		if m, ok := p.Recv(); ok {
			got[p.ID()] = m.Payload
		}
		p.Sync()
	}
	for _, router := range allRouters {
		got = [4]int64{}
		sim := &BSPOnLogP{LogP: lp, Router: router, Seed: 2}
		res, err := sim.Run(prog)
		if err != nil {
			t.Fatalf("%v: %v", router, err)
		}
		for i, v := range got {
			if v != int64(100+i) {
				t.Fatalf("%v: proc %d self-message payload %d", router, i, v)
			}
		}
		if res.MessagesRouted != 0 {
			t.Fatalf("%v: self-sends routed through the network (%d)", router, res.MessagesRouted)
		}
		// Guest accounting still counts them (h = 1).
		if len(res.GuestCosts) == 0 || res.GuestCosts[0].H != 1 {
			t.Fatalf("%v: guest costs %+v", router, res.GuestCosts)
		}
	}
}

func TestBSPOnLogPEmptyProgram(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	for _, router := range allRouters {
		sim := &BSPOnLogP{LogP: lp, Router: router}
		res, err := sim.Run(func(p bsp.Proc) {})
		if err != nil {
			t.Fatalf("%v: %v", router, err)
		}
		if res.GuestTime != 0 || res.Supersteps != 0 {
			t.Fatalf("%v: empty program charged %+v", router, res)
		}
	}
}

func TestBSPOnLogPBitonicNeedsPow2(t *testing.T) {
	lp := logp.Params{P: 6, L: 8, O: 1, G: 2}
	sim := &BSPOnLogP{LogP: lp, Router: RouterDeterministic, Sort: SortBitonic}
	_, err := sim.Run(func(p bsp.Proc) {})
	if err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Fatalf("expected pow2 error, got %v", err)
	}
}

// TestBSPOnLogPRejectsOutOfRangeSettings: a setting outside its
// declared range fails Run with an error naming it, before the program
// runs a single instruction.
func TestBSPOnLogPRejectsOutOfRangeSettings(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	cases := []struct {
		name string
		sim  BSPOnLogP
		want string
	}{
		{"router", BSPOnLogP{Router: Router(7)}, "unknown router Router(7)"},
		{"sort", BSPOnLogP{Sort: SortAlgo(9)}, "unknown sort algorithm SortAlgo(9)"},
		{"policy", BSPOnLogP{Policy: logp.DeliveryPolicy(9)}, "unknown delivery policy DeliveryPolicy(9)"},
		{"beta<0", BSPOnLogP{Router: RouterRandomized, Beta: -1}, "Beta -1 outside"},
		{"beta NaN", BSPOnLogP{Router: RouterRandomized, Beta: math.NaN()}, "Beta NaN outside"},
		{"beta Inf", BSPOnLogP{Router: RouterRandomized, Beta: math.Inf(1)}, "Beta +Inf outside"},
	}
	for _, c := range cases {
		sim := c.sim
		sim.LogP = lp
		ran := false
		_, err := sim.Run(func(p bsp.Proc) {
			ran = true
			p.Sync()
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want it to contain %q", c.name, err, c.want)
		}
		if ran {
			t.Errorf("%s: the program ran before the setting was rejected", c.name)
		}
	}
}

func TestBSPOnLogPDeterministicNonPow2ViaColumnsort(t *testing.T) {
	// With SortAuto, a non-power-of-two p falls back to columnsort;
	// the exchange program must still produce native-identical
	// results, stall-free.
	lp := logp.Params{P: 6, L: 16, O: 2, G: 4}
	nativeOuts := make([][]int64, lp.P)
	if _, err := bsp.NewMachine(bsp.Params{P: lp.P, G: lp.G, L: lp.L}).Run(exchangeProgram(nativeOuts)); err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(nativeOuts[0])
	outs := make([][]int64, lp.P)
	sim := &BSPOnLogP{LogP: lp, Router: RouterDeterministic, Seed: 4, StrictStallFree: true}
	if _, err := sim.Run(exchangeProgram(outs)); err != nil {
		t.Fatal(err)
	}
	got := sortedCopy(outs[0])
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBSPOnLogPForcedColumnsortMatchesBitonic(t *testing.T) {
	lp := logp.Params{P: 4, L: 16, O: 1, G: 2}
	for _, algo := range []SortAlgo{SortBitonic, SortColumnsort} {
		outs := make([][]int64, lp.P)
		sim := &BSPOnLogP{LogP: lp, Router: RouterDeterministic, Sort: algo, Seed: 6, StrictStallFree: true}
		if _, err := sim.Run(exchangeProgram(outs)); err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(outs[0]) == 0 {
			t.Fatalf("%v: no results gathered", algo)
		}
	}
}

func TestSortAlgoString(t *testing.T) {
	if SortAuto.String() != "auto" || SortBitonic.String() != "bitonic" || SortColumnsort.String() != "columnsort" {
		t.Fatal("SortAlgo strings wrong")
	}
	if !strings.Contains(SortAlgo(9).String(), "9") {
		t.Fatal("unknown algo should render its value")
	}
}

func TestColumnsortPaddedR(t *testing.T) {
	cases := []struct{ r, p, want int }{
		{1, 2, 2},     // threshold 2(1)^2 = 2, unit 2
		{5, 2, 6},     // even multiple of 2 above 5
		{1, 4, 20},    // threshold 18, unit 4 -> 20
		{100, 4, 100}, // already valid
		{3, 3, 12},    // threshold 8, unit 6 -> 12
		{7, 1, 7},     // single column: trivial
	}
	for _, c := range cases {
		got := columnsortPaddedR(c.r, c.p)
		if got != c.want {
			t.Errorf("columnsortPaddedR(%d, %d) = %d, want %d", c.r, c.p, got, c.want)
		}
		if c.p > 1 && got < c.r {
			t.Errorf("padded below r: %d < %d", got, c.r)
		}
	}
}

func TestBSPOnLogPReproducible(t *testing.T) {
	lp := logp.Params{P: 8, L: 16, O: 2, G: 4}
	for _, router := range allRouters {
		var times [2]int64
		for round := 0; round < 2; round++ {
			outs := make([][]int64, lp.P)
			sim := &BSPOnLogP{LogP: lp, Router: router, Seed: 5}
			res, err := sim.Run(exchangeProgram(outs))
			if err != nil {
				t.Fatalf("%v: %v", router, err)
			}
			times[round] = res.HostTime
		}
		if times[0] != times[1] {
			t.Fatalf("%v: host times differ across identical runs: %v", router, times)
		}
		// A reused BSPOnLogP value keeps its cached host machine while
		// the machine settings hold, replays the fresh value's result,
		// and rebuilds the host when a setting changes.
		sim := &BSPOnLogP{LogP: lp, Router: router, Seed: 5}
		var first *logp.Machine
		for round := 0; round < 2; round++ {
			res, err := sim.Run(exchangeProgram(make([][]int64, lp.P)))
			if err != nil {
				t.Fatalf("%v reused round %d: %v", router, round, err)
			}
			if res.HostTime != times[0] {
				t.Fatalf("%v reused round %d: host time %d, fresh %d", router, round, res.HostTime, times[0])
			}
			if round == 0 {
				first = sim.mach
			} else if sim.mach != first {
				t.Fatalf("%v: unchanged settings rebuilt the host machine", router)
			}
		}
		sim.Policy = logp.DeliverMinLatency
		if _, err := sim.Run(exchangeProgram(make([][]int64, lp.P))); err != nil {
			t.Fatalf("%v: %v", router, err)
		}
		if sim.mach == first {
			t.Fatalf("%v: changed policy did not rebuild the host machine", router)
		}
	}
}

func TestBSPOnLogPOfflineTimeNearOptimal(t *testing.T) {
	// A single superstep routing a known h-relation: host time must
	// be close to Tsynch + 2o + G(h-1) + L plus alignment slack.
	lp := logp.Params{P: 8, L: 16, O: 2, G: 4}
	h := 6
	prog := func(p bsp.Proc) {
		n := p.P()
		for k := 1; k <= h; k++ {
			p.Send((p.ID()+k)%n, 0, int64(k), 0)
		}
		p.Sync()
		for {
			if _, ok := p.Recv(); !ok {
				break
			}
		}
	}
	sim := &BSPOnLogP{LogP: lp, Router: RouterOffline, Seed: 1, StrictStallFree: true}
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	slack := alignSlack(lp)
	// Two barriers (entry + exit round), one aligned delivery phase,
	// plus acquisition tail.
	bound := 3*(slack+4*lp.L) + int64(h)*lp.G + lp.L + int64(h)*(lp.G+lp.O) + 8*lp.O
	if res.HostTime > bound {
		t.Fatalf("offline routing time %d exceeds bound %d", res.HostTime, bound)
	}
}

func TestThm2SlowdownModerateForLargeH(t *testing.T) {
	// For h comparable to p the deterministic slowdown should be a
	// modest polylog factor, not the worst-case barrier-dominated
	// ratio seen at h=1.
	lp := logp.Params{P: 16, L: 16, O: 1, G: 2}
	big := func(p bsp.Proc) {
		n := p.P()
		for k := 1; k < n; k++ {
			p.Send((p.ID()+k)%n, 0, int64(k), 0)
		}
		p.Sync()
		for {
			if _, ok := p.Recv(); !ok {
				break
			}
		}
	}
	sim := &BSPOnLogP{LogP: lp, Router: RouterDeterministic, Seed: 11, StrictStallFree: true}
	res, err := sim.Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Slowdown(); s <= 0 || s > 120 {
		t.Fatalf("deterministic slowdown %.1f out of plausible range (host %d guest %d)", s, res.HostTime, res.GuestTime)
	}
}

// TestCrossSimEquivalenceProperty generates random multi-superstep BSP
// programs and requires every router x policy combination to produce
// the exact per-processor message multisets the native machine does.
func TestCrossSimEquivalenceProperty(t *testing.T) {
	type obs struct{ sums []int64 }
	makeProg := func(seed uint64, pCount, steps int, out *obs) bsp.Program {
		return func(pr bsp.Proc) {
			// Each processor derives its traffic deterministically
			// from (seed, id, superstep); receipts fold into a
			// order-independent checksum.
			var sum int64
			for s := 0; s < steps; s++ {
				x := seed*1000003 + uint64(pr.ID())*101 + uint64(s)*13
				fan := int(x % 4)
				for k := 1; k <= fan; k++ {
					dst := int((x + uint64(k)*7) % uint64(pCount))
					pr.Send(dst, int32(s), int64(x%997)+int64(k), int64(k))
				}
				pr.Compute(int64(x % 9))
				pr.Sync()
				for {
					m, ok := pr.Recv()
					if !ok {
						break
					}
					sum += m.Payload*31 + int64(m.Tag)*7 + int64(m.Src) + m.Aux*3
				}
			}
			out.sums[pr.ID()] = sum
		}
	}
	for seed := uint64(0); seed < 3; seed++ {
		for _, pCount := range []int{4, 8} {
			steps := 3
			lp := logp.Params{P: pCount, L: 16, O: 2, G: 4}
			native := obs{sums: make([]int64, pCount)}
			if _, err := bsp.NewMachine(bsp.Params{P: pCount, G: lp.G, L: lp.L}).Run(makeProg(seed, pCount, steps, &native)); err != nil {
				t.Fatal(err)
			}
			for _, router := range allRouters {
				for _, pol := range corePolicies {
					crossed := obs{sums: make([]int64, pCount)}
					sim := &BSPOnLogP{LogP: lp, Router: router, Policy: pol, Seed: seed + 100}
					if _, err := sim.Run(makeProg(seed, pCount, steps, &crossed)); err != nil {
						t.Fatalf("seed %d p %d %v/%v: %v", seed, pCount, router, pol, err)
					}
					for i := range native.sums {
						if native.sums[i] != crossed.sums[i] {
							t.Fatalf("seed %d p %d %v/%v: proc %d checksum %d vs native %d",
								seed, pCount, router, pol, i, crossed.sums[i], native.sums[i])
						}
					}
				}
			}
		}
	}
}

func TestRandomizedSequenceBoundOnSumH(t *testing.T) {
	// End of Section 4.3: a sequence of T supersteps with degrees
	// h_1..h_T is simulated in O(G * sum h_i) whp. Measure a
	// five-superstep program against c*G*sum(h) plus per-superstep
	// fixed costs.
	lp := logp.Params{P: 32, L: 16, O: 1, G: 2}
	steps := 5
	hPer := 16
	prog := func(p bsp.Proc) {
		n := p.P()
		for s := 0; s < steps; s++ {
			for k := 1; k <= hPer; k++ {
				p.Send((p.ID()+k+s)%n, 0, int64(k), 0)
			}
			p.Sync()
			for {
				if _, ok := p.Recv(); !ok {
					break
				}
			}
		}
	}
	sim := &BSPOnLogP{LogP: lp, Router: RouterRandomized, Seed: 21, Beta: 2}
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	sumH := int64(0)
	for _, h := range res.SuperstepH {
		sumH += h
	}
	fixed := int64(steps+1) * (collective.CBTimeBound(lp, lp.P) + alignSlack(lp) + 4*lp.L)
	bound := 16*lp.G*sumH + fixed
	if res.HostTime > bound {
		t.Fatalf("sequence of %d supersteps took %d, above O(G*sumH) bound %d (sumH=%d)",
			steps, res.HostTime, bound, sumH)
	}
}

func TestDeterministicRouterHotSpotRelation(t *testing.T) {
	// An extreme in-degree relation (everyone -> processor 0): the
	// protocol's s-computation must find s = p-1 and the delivery
	// classes must still respect the capacity bound, stall-free.
	lp := logp.Params{P: 16, L: 16, O: 1, G: 2}
	var got int64
	prog := func(p bsp.Proc) {
		if p.ID() != 0 {
			p.Send(0, 0, int64(p.ID()), 0)
		}
		p.Sync()
		if p.ID() == 0 {
			for {
				m, ok := p.Recv()
				if !ok {
					break
				}
				got += m.Payload
			}
		}
	}
	for _, algo := range []SortAlgo{SortBitonic, SortColumnsort} {
		got = 0
		sim := &BSPOnLogP{LogP: lp, Router: RouterDeterministic, Sort: algo, Seed: 5, StrictStallFree: true}
		res, err := sim.Run(prog)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if got != 15*16/2 {
			t.Fatalf("%v: sum = %d", algo, got)
		}
		if len(res.SuperstepH) == 0 || res.SuperstepH[0] != 15 {
			t.Fatalf("%v: h = %v, want 15", algo, res.SuperstepH)
		}
	}
}

func TestAdapterAccessors(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	var steps, inboxes []int
	sim := &BSPOnLogP{LogP: lp, Router: RouterOffline, Seed: 8}
	res, err := sim.Run(func(p bsp.Proc) {
		if p.Params().P != 4 || p.Params().G != lp.G {
			panic("guest params wrong")
		}
		steps = append(steps, p.Superstep())
		p.Send((p.ID()+1)%p.P(), 0, 1, 0)
		p.Send((p.ID()+2)%p.P(), 0, 2, 0)
		p.Sync()
		steps = append(steps, p.Superstep())
		inboxes = append(inboxes, p.Inbox())
		p.Recv()
		inboxes = append(inboxes, p.Inbox())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Supersteps == 0 {
		t.Fatal("no supersteps charged")
	}
	// The engine serializes processors, so the shared slices are
	// safe; spot-check the first processor's view.
	if steps[0] != 0 {
		t.Fatalf("initial superstep = %d", steps[0])
	}
	found := false
	for i := 0; i+1 < len(inboxes); i += 2 {
		if inboxes[i] == 2 && inboxes[i+1] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inbox counts %v never showed 2 -> 1", inboxes)
	}
}

func TestWorkRatioEdgeCases(t *testing.T) {
	r := Thm1Result{}
	if r.WorkRatio(4, 2) != 1 {
		t.Fatal("zero guest time should give ratio 1")
	}
	r = Thm1Result{BSPTime: 100, GuestTime: 50}
	if got := r.WorkRatio(4, 2); got != 1.0 {
		t.Fatalf("work ratio = %v, want 1.0 (2*100)/(4*50)", got)
	}
}

func TestSlowdownZeroGuest(t *testing.T) {
	if (Thm2Result{HostTime: 5}).Slowdown() != 1 {
		t.Fatal("zero guest time should give slowdown 1")
	}
}

// TestThm2SuperstepBreakdown checks the per-superstep phase split the
// cross-simulation reports: one entry per charged superstep, phases
// summing to the measured span, and the guest-side prediction
// w + g*h + l matching the charged cost.
func TestThm2SuperstepBreakdown(t *testing.T) {
	outs := make([][]int64, 8)
	sim := &BSPOnLogP{
		LogP:            logp.Params{P: 8, L: 16, O: 1, G: 2},
		Router:          RouterDeterministic,
		StrictStallFree: true,
	}
	res, err := sim.Run(exchangeProgram(outs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakdown) != res.Supersteps {
		t.Fatalf("%d breakdown entries for %d supersteps", len(res.Breakdown), res.Supersteps)
	}
	guest := sim.guestParams()
	var measuredSum int64
	for i, b := range res.Breakdown {
		if b.Superstep != i {
			t.Fatalf("entry %d labelled superstep %d", i, b.Superstep)
		}
		if b.H != res.SuperstepH[i] {
			t.Fatalf("superstep %d: breakdown h %d, SuperstepH %d", i, b.H, res.SuperstepH[i])
		}
		if want := res.GuestCosts[i].Time(guest); b.Predicted != want {
			t.Fatalf("superstep %d: predicted %d, guest cost %d", i, b.Predicted, want)
		}
		if b.Compute < 0 || b.Barrier <= 0 || b.Route < 0 {
			t.Fatalf("superstep %d: non-positive phase in %+v", i, b)
		}
		// Each phase maximum and the measured span are taken over
		// processors independently: the span dominates every single
		// phase, and the sum of phase maxima dominates the span.
		for _, phase := range []int64{b.Compute, b.Barrier, b.Route} {
			if b.Measured < phase {
				t.Fatalf("superstep %d: measured %d below a phase in %+v", i, b.Measured, b)
			}
		}
		if b.Measured > b.Compute+b.Barrier+b.Route {
			t.Fatalf("superstep %d: measured %d exceeds phase sum in %+v", i, b.Measured, b)
		}
		measuredSum += b.Measured
	}
	// Charged supersteps are consecutive host phases, so their spans
	// cannot exceed the host completion time in total.
	if measuredSum > res.HostTime {
		t.Fatalf("breakdown spans sum to %d, host time %d", measuredSum, res.HostTime)
	}
}
