package bsp

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func run(t *testing.T, params Params, prog Program) Result {
	t.Helper()
	res, err := NewMachine(params).Run(prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{P: 4, G: 2, L: 32}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Params{
		{P: 0, G: 1, L: 1},
		{P: 1, G: 0, L: 1},
		{P: 1, G: 1, L: 0},
	} {
		if bad.Validate() == nil {
			t.Errorf("%v should be invalid", bad)
		}
	}
}

func TestParamsString(t *testing.T) {
	s := Params{P: 8, G: 3, L: 64}.String()
	for _, want := range []string{"p=8", "g=3", "l=64"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSuperstepCostFormula(t *testing.T) {
	params := Params{P: 4, G: 3, L: 100}
	c := SuperstepCost{W: 10, H: 5}
	if got := c.Time(params); got != 10+3*5+100 {
		t.Fatalf("cost = %d, want 125", got)
	}
	if got := (SuperstepCost{}).Time(params); got != 0 {
		t.Fatalf("empty superstep cost = %d, want 0", got)
	}
	// A pure-barrier superstep (work but no messages) still pays l.
	if got := (SuperstepCost{W: 1}).Time(params); got != 101 {
		t.Fatalf("work-only superstep cost = %d, want 101", got)
	}
}

func TestSingleSuperstepCost(t *testing.T) {
	params := Params{P: 4, G: 2, L: 50}
	res := run(t, params, func(p Proc) {
		p.Compute(int64(10 * (p.ID() + 1))) // max work = 40
		p.Send((p.ID()+1)%p.P(), 0, 1, 0)   // h = 1
		p.Sync()
	})
	// Superstep 1: w=40, h=1 -> 40 + 2 + 50 = 92. Final round: no
	// work, no messages -> 0.
	if res.Time != 92 {
		t.Fatalf("Time = %d, want 92", res.Time)
	}
	if res.Supersteps != 1 {
		t.Fatalf("Supersteps = %d, want 1", res.Supersteps)
	}
	if res.MessagesSent != 4 {
		t.Fatalf("MessagesSent = %d, want 4", res.MessagesSent)
	}
}

func TestHIsMaxOfFanInAndFanOut(t *testing.T) {
	params := Params{P: 4, G: 1, L: 1}
	// All processors send 2 messages to processor 0: fan-out 2,
	// fan-in 6 for proc 0 (others send 2 each, excluding proc 0
	// itself sending 2 to itself as well -> 8 total).
	res := run(t, params, func(p Proc) {
		p.Send(0, 0, 0, 0)
		p.Send(0, 0, 0, 0)
		p.Sync()
	})
	if len(res.Costs) != 1 || res.Costs[0].H != 8 {
		t.Fatalf("h = %+v, want 8 (receiver side dominates)", res.Costs)
	}
}

func TestMessagesVisibleNextSuperstepOnly(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	var sawEarly, sawLate atomic.Bool
	run(t, params, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 0, 42, 0)
		}
		if p.ID() == 1 {
			if _, ok := p.Recv(); ok {
				sawEarly.Store(true)
			}
		}
		p.Sync()
		if p.ID() == 1 {
			if m, ok := p.Recv(); ok && m.Payload == 42 {
				sawLate.Store(true)
			}
		}
		p.Sync()
	})
	if sawEarly.Load() {
		t.Fatal("message visible in the superstep it was sent")
	}
	if !sawLate.Load() {
		t.Fatal("message not visible in the following superstep")
	}
}

func TestInputPoolDiscardedAtBarrier(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	var leftover atomic.Bool
	run(t, params, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 0, 1, 0)
			p.Send(1, 0, 2, 0)
		}
		p.Sync()
		if p.ID() == 1 {
			p.Recv() // read one of two, leave the other
		}
		p.Sync()
		if p.ID() == 1 {
			if _, ok := p.Recv(); ok {
				leftover.Store(true)
			}
		}
		p.Sync()
	})
	if leftover.Load() {
		t.Fatal("unread input-pool message survived a barrier")
	}
}

func TestSelfSendAllowed(t *testing.T) {
	params := Params{P: 1, G: 1, L: 1}
	var got atomic.Int64
	run(t, params, func(p Proc) {
		p.Send(0, 0, 77, 0)
		p.Sync()
		if m, ok := p.Recv(); ok {
			got.Store(m.Payload)
		}
		p.Sync()
	})
	if got.Load() != 77 {
		t.Fatalf("self-send payload = %d, want 77", got.Load())
	}
}

func TestInbox(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	var counts [3]int32
	run(t, params, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < 3; i++ {
				p.Send(1, 0, int64(i), 0)
			}
		}
		p.Sync()
		if p.ID() == 1 {
			counts[0] = int32(p.Inbox())
			p.Recv()
			counts[1] = int32(p.Inbox())
			p.Recv()
			p.Recv()
			counts[2] = int32(p.Inbox())
		}
		p.Sync()
	})
	if counts != [3]int32{3, 2, 0} {
		t.Fatalf("Inbox counts = %v, want [3 2 0]", counts)
	}
}

func TestMultiSuperstepAccumulation(t *testing.T) {
	params := Params{P: 3, G: 2, L: 10}
	res := run(t, params, func(p Proc) {
		for s := 0; s < 4; s++ {
			p.Compute(5)
			p.Sync()
		}
	})
	// 4 supersteps of w=5, h=0: 4 * (5 + 10) = 60.
	if res.Time != 60 || res.Supersteps != 4 {
		t.Fatalf("Time = %d Supersteps = %d, want 60/4", res.Time, res.Supersteps)
	}
}

func TestSuperstepIndex(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	var last atomic.Int32
	run(t, params, func(p Proc) {
		for s := 0; s < 3; s++ {
			if p.Superstep() != s {
				panic("superstep index wrong")
			}
			p.Compute(1)
			p.Sync()
		}
		last.Store(int32(p.Superstep()))
	})
	if last.Load() != 3 {
		t.Fatalf("final superstep = %d, want 3", last.Load())
	}
}

func TestUnevenTermination(t *testing.T) {
	// Processors finish after different numbers of supersteps; the
	// barrier must keep working for the survivors.
	params := Params{P: 4, G: 1, L: 1}
	res := run(t, params, func(p Proc) {
		for s := 0; s <= p.ID(); s++ {
			p.Compute(1)
			p.Sync()
		}
	})
	if res.Supersteps != 4 {
		t.Fatalf("Supersteps = %d, want 4", res.Supersteps)
	}
}

func TestWorkBeforeFinishCharged(t *testing.T) {
	params := Params{P: 2, G: 1, L: 10}
	res := run(t, params, func(p Proc) {
		p.Compute(7) // no Sync: final implicit superstep
	})
	if res.Time != 17 || res.Supersteps != 1 {
		t.Fatalf("Time = %d Supersteps = %d, want 17/1", res.Time, res.Supersteps)
	}
}

func TestPanicPropagates(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	_, err := NewMachine(params).Run(func(p Proc) {
		if p.ID() == 1 {
			panic("bsp boom")
		}
		p.Sync()
	})
	if err == nil || !strings.Contains(err.Error(), "bsp boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestSendValidation(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	_, err := NewMachine(params).Run(func(p Proc) {
		p.Send(9, 0, 0, 0)
	})
	if err == nil || !strings.Contains(err.Error(), "invalid destination") {
		t.Fatalf("expected destination error, got %v", err)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	params := Params{P: 1, G: 1, L: 1}
	_, err := NewMachine(params).Run(func(p Proc) {
		p.Compute(-5)
	})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected negative-work error, got %v", err)
	}
}

func TestRunReusable(t *testing.T) {
	params := Params{P: 2, G: 1, L: 1}
	m := NewMachine(params)
	prog := func(p Proc) {
		p.Compute(int64(p.ID()) + 1)
		p.Sync()
	}
	a, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Fatalf("re-run differs: %d vs %d", a.Time, b.Time)
	}
}

func TestTotalExchangeProperty(t *testing.T) {
	// Property: for a random assignment of messages per processor,
	// BSP h equals the true max of fan-in and fan-out and every
	// message is delivered exactly once.
	check := func(seed uint16) bool {
		const n = 6
		params := Params{P: n, G: 1, L: 1}
		// Derive a deterministic pattern from the seed: processor i
		// sends to (i + k) % n for k in 1..(seed%n).
		fanOut := int(seed%n) + 1
		var delivered [n][n]int32
		res, err := NewMachine(params).Run(func(p Proc) {
			for k := 1; k <= fanOut; k++ {
				p.Send((p.ID()+k)%n, 0, int64(p.ID()), 0)
			}
			p.Sync()
			for {
				m, ok := p.Recv()
				if !ok {
					break
				}
				atomic.AddInt32(&delivered[m.Payload][p.ID()], 1)
			}
			p.Sync()
		})
		if err != nil {
			return false
		}
		if res.Costs[0].H != int64(fanOut) {
			return false
		}
		count := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				count += int(delivered[i][j])
			}
		}
		return count == n*fanOut
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewMachinePanicsOnInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine with invalid params did not panic")
		}
	}()
	NewMachine(Params{P: 0, G: 1, L: 1})
}

// TestPoolOrderIsSourceOrder pins the input pool's order: messages by
// source id, then send order. Every run must see the same order.
func TestPoolOrderIsSourceOrder(t *testing.T) {
	const p = 8
	want := []int64{10, 11, 20, 21, 30, 31, 40, 41, 50, 51, 60, 61, 70, 71}
	for trial := 0; trial < 50; trial++ {
		var got []int64
		run(t, Params{P: p, G: 1, L: 1}, func(pr Proc) {
			if pr.ID() != 0 {
				pr.Send(0, 0, int64(10*pr.ID()), 0)
				pr.Send(0, 0, int64(10*pr.ID()+1), 0)
			}
			pr.Sync()
			if pr.ID() == 0 {
				for m, ok := pr.Recv(); ok; m, ok = pr.Recv() {
					got = append(got, m.Payload)
				}
			}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: pool order %v, want %v", trial, got, want)
		}
	}
}

// TestErrorIsLowestIDOfEarliestBarrier pins which panic Run reports
// when several processors panic: the lowest id among those that panic
// before the earliest barrier, not the first report to arrive.
func TestErrorIsLowestIDOfEarliestBarrier(t *testing.T) {
	const p = 8
	for trial := 0; trial < 50; trial++ {
		_, err := NewMachine(Params{P: p, G: 1, L: 1}).Run(func(pr Proc) {
			switch pr.ID() {
			case 1: // panics only after the first barrier
				pr.Sync()
				panic("late")
			case 2, 5, 7:
				panic("early")
			}
			pr.Sync()
		})
		if err == nil || err.Error() != "bsp: processor 2 panicked: early" {
			t.Fatalf("trial %d: got %v, want processor 2's panic", trial, err)
		}
	}
}

// TestPoolUntouchedBySameSuperstepSends pins that a barrier refills
// the input pools only after every processor has reached it. Processor
// 0 sends to processor 1 in every superstep, and processor 1 reads its
// pool only after processor 0 has sent the next superstep's message:
// the pool must still hold the previous superstep's.
func TestPoolUntouchedBySameSuperstepSends(t *testing.T) {
	const steps = 3
	var sent [steps]atomic.Bool
	var pools []int64
	run(t, Params{P: 2, G: 1, L: 1}, func(p Proc) {
		for k := 0; k < steps; k++ {
			if p.ID() == 0 {
				p.Send(1, 0, int64(100+k), 0)
				sent[k].Store(true)
			} else {
				for !sent[k].Load() {
					runtime.Gosched()
				}
				var got int64
				if m, ok := p.Recv(); ok {
					got = m.Payload
				}
				pools = append(pools, got)
			}
			p.Sync()
		}
	})
	if want := []int64{0, 100, 101}; !slices.Equal(pools, want) {
		t.Fatalf("pools %v, want %v", pools, want)
	}
}
