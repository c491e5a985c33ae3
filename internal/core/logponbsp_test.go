package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/logp"
)

// WorkRatio returns (hostP * BSPTime) / (guestP * GuestTime), the
// inefficiency of the simulation as a work ratio; a work-preserving
// simulation keeps it O(1 + g/G + l/L) independent of the folding
// factor.
func (r Thm1Result) WorkRatio(guestP, hostP int) float64 {
	if r.GuestTime == 0 || guestP == 0 {
		return 1
	}
	return float64(hostP) * float64(r.BSPTime) / (float64(guestP) * float64(r.GuestTime))
}

func TestThm1PingCorrectAndCosted(t *testing.T) {
	lp := logp.Params{P: 2, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	var got int64
	res, err := sim.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 99, 0)
		case 1:
			got = p.Recv().Payload
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("payload = %d", got)
	}
	// Submission at o=1 (cycle 0), arrival at cycle boundary 4,
	// acquisition ends at 5: guest time 5, cycles ceil(5/4)=2.
	if res.GuestTime != 5 || res.Cycles != 2 {
		t.Fatalf("guest time %d cycles %d, want 5/2", res.GuestTime, res.Cycles)
	}
	// Superstep costs: cycle 0 has h=1 -> 4 + 2*1 + 8 = 14;
	// cycle 1 has h=0 -> 4 + 8 = 12. Total 26 (matched g=G, l=L).
	if res.BSPTime != 26 {
		t.Fatalf("BSP time = %d, want 26", res.BSPTime)
	}
	if res.CapacityViolations != 0 || res.ExtensionTime != res.BSPTime {
		t.Fatalf("unexpected stalling accounting: %+v", res)
	}
}

func TestThm1MessagesCrossCycleBoundary(t *testing.T) {
	// A message submitted in cycle k must not be readable in cycle k.
	lp := logp.Params{P: 2, L: 100, O: 1, G: 2} // cycle length 50
	sim := &LogPOnBSP{LogP: lp}
	var acquiredAt int64
	_, err := sim.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 1, 0) // submitted at time 1, cycle 0
		case 1:
			p.Recv()
			acquiredAt = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival at the start of cycle 1 (time 50), acquisition ends 51.
	if acquiredAt != 51 {
		t.Fatalf("acquired at %d, want 51", acquiredAt)
	}
}

func TestThm1CBMatchesNative(t *testing.T) {
	// Run the CB collective natively on LogP and under the Theorem 1
	// replay; results must agree and the replay must be stall-free.
	lp := logp.Params{P: 16, L: 16, O: 2, G: 4}
	inputs := make([]int64, lp.P)
	for i := range inputs {
		inputs[i] = int64(i * 3)
	}
	prog := func(out []int64) logp.Program {
		return func(p logp.Proc) {
			mb := collective.NewMailbox(p)
			out[p.ID()] = collective.CombineBroadcast(mb, 5, inputs[p.ID()], collective.OpSum)
		}
	}
	native := make([]int64, lp.P)
	m := logp.NewMachine(lp, logp.WithStrictStallFree())
	nres, err := m.Run(prog(native))
	if err != nil {
		t.Fatal(err)
	}
	replayed := make([]int64, lp.P)
	sim := &LogPOnBSP{LogP: lp}
	rres, err := sim.Run(prog(replayed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range native {
		if native[i] != replayed[i] {
			t.Fatalf("proc %d: native %d vs replay %d", i, native[i], replayed[i])
		}
	}
	if rres.CapacityViolations != 0 {
		t.Fatalf("CB replay not stall-free: %d violations", rres.CapacityViolations)
	}
	// Theorem 1: with matched parameters the slowdown is O(1).
	slow := float64(rres.BSPTime) / float64(nres.Time)
	if slow > 8 {
		t.Fatalf("matched-parameter slowdown %.2f too large (BSP %d vs LogP %d)", slow, rres.BSPTime, nres.Time)
	}
}

func TestThm1SlowdownGrowsWithG(t *testing.T) {
	lp := logp.Params{P: 8, L: 16, O: 1, G: 2}
	prog := func(p logp.Proc) {
		// Saturating pipelined traffic: everyone relays to the next
		// processor for a while.
		n := p.P()
		for i := 0; i < 8; i++ {
			p.Send((p.ID()+1)%n, 0, int64(i), 0)
		}
		for i := 0; i < 8; i++ {
			p.Recv()
		}
	}
	base := &LogPOnBSP{LogP: lp}
	bres, err := base.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	costly := &LogPOnBSP{LogP: lp, BSP: bsp.Params{P: lp.P, G: 8 * lp.G, L: lp.L}}
	cres, err := costly.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if cres.BSPTime <= bres.BSPTime {
		t.Fatalf("g=8G replay (%d) not slower than matched (%d)", cres.BSPTime, bres.BSPTime)
	}
	if cres.GuestTime != bres.GuestTime {
		t.Fatalf("guest time changed with host parameters: %d vs %d", cres.GuestTime, bres.GuestTime)
	}
}

func TestThm1HotSpotTriggersExtension(t *testing.T) {
	// 12 senders to one destination in a single cycle exceeds the
	// capacity 4, so the replay must flag the program as stalling.
	lp := logp.Params{P: 13, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	res, err := sim.Run(func(p logp.Proc) {
		if p.ID() < 12 {
			p.Send(12, 0, 0, 0)
			return
		}
		for i := 0; i < 12; i++ {
			p.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityViolations == 0 {
		t.Fatal("hot-spot cycle not flagged")
	}
	if res.ExtensionTime <= res.BSPTime {
		t.Fatalf("extension charge (%d) not above plain BSP time (%d)", res.ExtensionTime, res.BSPTime)
	}
}

func TestThm1Deterministic(t *testing.T) {
	lp := logp.Params{P: 6, L: 12, O: 2, G: 3}
	prog := func(p logp.Proc) {
		n := p.P()
		p.Send((p.ID()+1)%n, 0, 1, 0)
		p.Send((p.ID()+2)%n, 0, 2, 0)
		p.Recv()
		p.Recv()
	}
	sim := &LogPOnBSP{LogP: lp}
	a, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.BSPTime != b.BSPTime || a.GuestTime != b.GuestTime || a.MaxCycleH != b.MaxCycleH {
		t.Fatalf("nondeterministic replay: %+v vs %+v", a, b)
	}
}

func TestThm1CycleLenAblation(t *testing.T) {
	// Shorter cycles mean more supersteps, each paying l: BSP time
	// should not drop when the cycle length shrinks.
	lp := logp.Params{P: 4, L: 32, O: 1, G: 4}
	prog := func(p logp.Proc) {
		n := p.P()
		for i := 0; i < 4; i++ {
			p.Send((p.ID()+1)%n, 0, int64(i), 0)
		}
		for i := 0; i < 4; i++ {
			p.Recv()
		}
		p.Compute(64)
	}
	var prev int64 = -1
	for _, cl := range []int64{32, 16, 8, 4} {
		sim := &LogPOnBSP{LogP: lp, CycleLen: cl}
		res, err := sim.Run(prog)
		if err != nil {
			t.Fatalf("cycle %d: %v", cl, err)
		}
		if prev >= 0 && res.BSPTime < prev {
			t.Fatalf("BSP time dropped from %d to %d when cycle shrank to %d", prev, res.BSPTime, cl)
		}
		prev = res.BSPTime
	}
}

func TestThm1DeadlockReported(t *testing.T) {
	lp := logp.Params{P: 2, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	_, err := sim.Run(func(p logp.Proc) {
		if p.ID() == 1 {
			p.Recv()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestThm1PanicReported(t *testing.T) {
	lp := logp.Params{P: 2, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	_, err := sim.Run(func(p logp.Proc) {
		if p.ID() == 0 {
			panic("thm1 boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "thm1 boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestThm1EmptyProgram(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	res, err := sim.Run(func(p logp.Proc) {})
	if err != nil {
		t.Fatal(err)
	}
	if res.BSPTime != 0 || res.Cycles != 0 || res.Slowdown() != 1 {
		t.Fatalf("empty program result %+v", res)
	}
}

func TestThm1TryRecvAndWaitUntil(t *testing.T) {
	lp := logp.Params{P: 2, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	var polls int
	_, err := sim.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 5, 0)
		case 1:
			for {
				if _, ok := p.TryRecv(); ok {
					break
				}
				polls++
				if p.Now() > pollBound {
					panic(fmt.Sprintf("no message by clock %d: the replay lost it", p.Now()))
				}
			}
			p.WaitUntil(100)
			if p.Now() != 100 {
				panic("WaitUntil failed")
			}
			if p.Buffered() != 0 {
				panic("Buffered should be 0")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival at cycle boundary 4; polls at clocks 0..3.
	if polls != 4 {
		t.Fatalf("polls = %d, want 4", polls)
	}
}

func TestThm1FoldingWorkPreserving(t *testing.T) {
	// Footnote 1: the LogP-on-BSP simulation can be made
	// work-preserving — folding p guests onto p/s hosts keeps the
	// work ratio (hostP*T_BSP)/(p*T_LogP) roughly constant while the
	// per-step slowdown grows by s.
	lp := logp.Params{P: 16, L: 16, O: 1, G: 2}
	prog := func(p logp.Proc) {
		n := p.P()
		for i := 0; i < 4; i++ {
			p.Send((p.ID()+1)%n, 0, int64(i), 0)
		}
		for i := 0; i < 4; i++ {
			p.Recv()
		}
	}
	var ratios []float64
	for _, fold := range []int{1, 2, 4, 8} {
		sim := &LogPOnBSP{LogP: lp, Fold: fold}
		res, err := sim.Run(prog)
		if err != nil {
			t.Fatalf("fold %d: %v", fold, err)
		}
		ratios = append(ratios, res.WorkRatio(lp.P, lp.P/fold))
		// Guest semantics must not change with the host shape.
		if res.GuestTime == 0 || res.MessagesSent != int64(lp.P*4) {
			t.Fatalf("fold %d: guest run changed: %+v", fold, res)
		}
	}
	// Work ratios should stay within a small band (they can even
	// improve: folding amortizes the per-superstep l over more work
	// and strips guest-local traffic from h).
	for i, r := range ratios {
		if r <= 0 || r > 3*ratios[0] {
			t.Fatalf("work ratio at fold %d = %.2f, fold 1 = %.2f", 1<<i, r, ratios[0])
		}
	}
}

func TestThm1FoldLocalTrafficFree(t *testing.T) {
	// Messages between guests folded onto the same host must not
	// count toward the BSP h-relation.
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	prog := func(p logp.Proc) {
		// 0<->1 and 2<->3 only: with fold 2, all traffic is
		// host-local.
		peer := p.ID() ^ 1
		p.Send(peer, 0, 1, 0)
		p.Recv()
	}
	sim := &LogPOnBSP{LogP: lp, Fold: 2}
	res, err := sim.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCycleH != 0 {
		t.Fatalf("host-local traffic counted: MaxCycleH = %d", res.MaxCycleH)
	}
	// Cross-host traffic does count.
	cross := func(p logp.Proc) {
		p.Send(p.ID()^2, 0, 1, 0) // 0<->2, 1<->3: always cross-host
		p.Recv()
	}
	res, err = sim.Run(cross)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxCycleH == 0 {
		t.Fatal("cross-host traffic not counted")
	}
}

func TestThm1FoldValidation(t *testing.T) {
	lp := logp.Params{P: 6, L: 8, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp, Fold: 4}
	if _, err := sim.Run(func(p logp.Proc) {}); err == nil || !strings.Contains(err.Error(), "does not divide") {
		t.Fatalf("expected divisibility error, got %v", err)
	}
	sim = &LogPOnBSP{LogP: lp, Fold: 2, BSP: bsp.Params{P: 6, G: 2, L: 8}}
	if _, err := sim.Run(func(p logp.Proc) {}); err == nil || !strings.Contains(err.Error(), "p/fold") {
		t.Fatalf("expected host-size error, got %v", err)
	}
}

// TestThm1RejectsInvalidCycleSettings: a negative cycle length, one
// longer than L, or a negative folding factor is a core: error, not
// silently clamped; 0 keeps selecting the defaults, and a cycle of
// exactly L is admissible.
func TestThm1RejectsInvalidCycleSettings(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	ring := func(p logp.Proc) {
		p.Send((p.ID()+1)%p.P(), 0, 1, 0)
		p.Recv()
	}
	for _, c := range []struct {
		cycleLen int64
		fold     int
		wantErr  string
	}{
		{cycleLen: -5, wantErr: "cycle length -5"},
		{cycleLen: lp.L + 16, wantErr: "cycle length 24"},
		{fold: -2, wantErr: "negative folding factor -2"},
		{},
		{cycleLen: lp.L},
		{cycleLen: 1, fold: 1},
	} {
		sim := &LogPOnBSP{LogP: lp, CycleLen: c.cycleLen, Fold: c.fold}
		_, err := sim.Run(ring)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("CycleLen %d, Fold %d: %v", c.cycleLen, c.fold, err)
		case c.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), "core: ") || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("CycleLen %d, Fold %d: err = %v, want a core: error containing %q", c.cycleLen, c.fold, err, c.wantErr)
		}
	}
}

func TestThm1ExecutedExtensionPow2(t *testing.T) {
	// With a power-of-two p, the stalling extension runs as a real
	// BSP program; its measured charge must exceed the plain
	// overloaded-superstep cost and stay within a moderate factor of
	// the closed-form estimate.
	lp := logp.Params{P: 16, L: 8, O: 1, G: 2} // capacity 4
	sim := &LogPOnBSP{LogP: lp}
	res, err := sim.Run(func(p logp.Proc) {
		if p.ID() != 15 {
			p.Send(15, 0, 0, 0)
			return
		}
		for i := 0; i < 15; i++ {
			p.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityViolations == 0 {
		t.Fatal("hot spot not flagged")
	}
	if res.ExtensionTime <= res.BSPTime {
		t.Fatalf("executed extension (%d) not above plain charge (%d)", res.ExtensionTime, res.BSPTime)
	}
	// Closed-form reference for the overloaded cycle.
	bp := bsp.Params{P: lp.P, G: lp.G, L: lp.L}
	formula := extensionFormula(bp, 15, lp.Capacity(), 4)
	extra := res.ExtensionTime - res.BSPTime
	if extra > 20*formula {
		t.Fatalf("executed extension extra %d far above formula reference %d", extra, formula)
	}
}

func TestThm1StallingDeliverySpread(t *testing.T) {
	// The replay delivers a hot spot's excess messages at one per G
	// past the boundary (an admissible stalling-rule execution), so
	// the receiver's acquisitions stretch across later cycles instead
	// of arriving all at once.
	lp := logp.Params{P: 9, L: 8, O: 1, G: 2} // capacity 4, cycle 4
	var acquisitions []int64
	sim := &LogPOnBSP{LogP: lp}
	_, err := sim.Run(func(p logp.Proc) {
		if p.ID() != 8 {
			p.Send(8, 0, 0, 0)
			return
		}
		for i := 0; i < 8; i++ {
			p.Recv()
			acquisitions = append(acquisitions, p.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// All 8 submissions land in cycle 0 (boundary 4). The first 4
	// arrive at the boundary; messages 5..8 arrive at 6, 8, 10, 12.
	last := acquisitions[len(acquisitions)-1]
	boundary := int64(4)
	if last < boundary+4*lp.G {
		t.Fatalf("last acquisition at %d; expected spread past %d", last, boundary+4*lp.G)
	}
}

func TestThm1DeadlockUnwindsParkedPrograms(t *testing.T) {
	lp := logp.Params{P: 4, L: 8, O: 1, G: 2}
	unwound := make([]bool, lp.P)
	sim := &LogPOnBSP{LogP: lp}
	_, err := sim.Run(func(p logp.Proc) {
		defer func() { unwound[p.ID()] = true }()
		if p.ID()%2 == 1 {
			p.Recv() // nobody sends: parked here by the deadlock
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
	for id, ok := range unwound {
		if !ok {
			t.Fatalf("processor %d's deferred function had not run when Run returned", id)
		}
	}
}

func TestThm1SendBodyDelivered(t *testing.T) {
	lp := logp.Params{P: 2, L: 8, O: 1, G: 2}
	body := new(int)
	var got interface{}
	sim := &LogPOnBSP{LogP: lp}
	if _, err := sim.Run(func(p logp.Proc) {
		if p.ID() == 0 {
			p.SendBody(1, 0, 0, 0, body)
		} else {
			got = p.Recv().Body
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != body {
		t.Fatalf("received body %v, want the sent %p", got, body)
	}
}

func TestThm1CountsOlderCycleAfterNewer(t *testing.T) {
	// CycleLen 8 and G 2 give a count ring of ⌊2/8⌋ + 2 = 2 slots.
	// Guests 0 and 1 both commit a Send at clock 6, guest 0 first: its
	// second Send is paced to 8 and lands in cycle 1, and only then is
	// guest 1's Send submitted at 7, into cycle 0. A ring one slot short
	// would find cycle 0's slot holding cycle 1.
	lp := logp.Params{P: 4, L: 16, O: 1, G: 2}
	sim := &LogPOnBSP{LogP: lp}
	res, err := sim.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Compute(5)
			p.Send(2, 0, 0, 0) // at 6, cycle 0
			p.Send(3, 0, 0, 0) // at 8, cycle 1
		case 1:
			p.Compute(6)
			p.Send(2, 0, 0, 0) // at 7, cycle 0
		case 2:
			p.Recv()
			p.Recv()
		case 3:
			p.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0 sends guest 2 two messages, cycle 1 guest 3 one; guest 3
	// acquires its message, delivered at 16, by 17. Each cycle costs
	// 8 + 2·h + 16.
	if !slices.Equal(res.CycleH, []int64{2, 1, 0}) || res.MaxCycleH != 2 {
		t.Fatalf("CycleH %v MaxCycleH %d, want [2 1 0] and 2", res.CycleH, res.MaxCycleH)
	}
	if res.BSPTime != 78 || res.GuestTime != 17 || res.CapacityViolations != 0 {
		t.Fatalf("BSPTime %d GuestTime %d CapacityViolations %d, want 78, 17 and 0",
			res.BSPTime, res.GuestTime, res.CapacityViolations)
	}
}
