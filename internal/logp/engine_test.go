package logp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// run executes prog on a fresh machine and fails the test on error.
func run(t *testing.T, params Params, prog Program, opts ...Option) Result {
	t.Helper()
	m := NewMachine(params, opts...)
	res, err := m.Run(prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleMessageMaxLatency(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	var got Message
	res := run(t, params, func(p Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 7, 42, 43)
		case 1:
			got = p.Recv()
		}
	}, WithDeliveryPolicy(DeliverMaxLatency))
	if got.Payload != 42 || got.Aux != 43 || got.Tag != 7 || got.Src != 0 {
		t.Fatalf("message corrupted: %+v", got)
	}
	// Submission instant = o = 1; acceptance immediate; delivery at
	// 1+L = 9; acquisition r = 9, clock = r+o = 10.
	if res.ProcTimes[0] != 1 {
		t.Errorf("sender clock = %d, want 1", res.ProcTimes[0])
	}
	if res.ProcTimes[1] != 10 {
		t.Errorf("receiver clock = %d, want 10", res.ProcTimes[1])
	}
	if res.StallEvents != 0 {
		t.Errorf("stall events = %d, want 0", res.StallEvents)
	}
	if res.MessagesSent != 1 {
		t.Errorf("messages = %d, want 1", res.MessagesSent)
	}
}

func TestSingleMessageMinLatency(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 1, 0)
		case 1:
			p.Recv()
		}
	}, WithDeliveryPolicy(DeliverMinLatency))
	// Delivery at 2, acquisition at 2, clock 3.
	if res.ProcTimes[1] != 3 {
		t.Errorf("receiver clock = %d, want 3", res.ProcTimes[1])
	}
}

func TestSendGapEnforced(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 4}
	res := run(t, params, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 0, 0, 0) // submission at 1
			p.Send(2, 0, 0, 0) // submission at max(1+1, 1+4) = 5
		} else {
			p.Recv()
		}
	})
	if res.ProcTimes[0] != 5 {
		t.Errorf("sender clock = %d, want 5 (gap-separated submissions)", res.ProcTimes[0])
	}
}

func TestRecvGapEnforced(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 4}
	res := run(t, params, func(p Proc) {
		switch p.ID() {
		case 0, 1:
			p.Send(2, 0, 0, 0)
		case 2:
			p.Recv()
			p.Recv()
		}
	}, WithDeliveryPolicy(DeliverMinLatency))
	// Both submissions at 1, deliveries at 2 and 3 (one per step).
	// First acquisition r1 = 2 (clock 3), second r2 = max(3, 3, 2+4) = 6,
	// clock 7.
	if res.ProcTimes[2] != 7 {
		t.Errorf("receiver clock = %d, want 7", res.ProcTimes[2])
	}
}

func TestOneDeliveryPerStepPerDestination(t *testing.T) {
	// k senders submit simultaneously; under min-latency delivery the
	// arrivals must occupy k distinct consecutive steps.
	params := Params{P: 5, L: 8, O: 1, G: 2}
	var arrivals []int64
	res := run(t, params, func(p Proc) {
		if p.ID() < 4 {
			p.Send(4, 0, int64(p.ID()), 0)
			return
		}
		for i := 0; i < 4; i++ {
			p.Recv()
			arrivals = append(arrivals, p.Now())
		}
	}, WithDeliveryPolicy(DeliverMinLatency))
	if res.MessagesSent != 4 {
		t.Fatalf("messages = %d", res.MessagesSent)
	}
	seen := map[int64]bool{}
	for _, a := range arrivals {
		if seen[a] {
			t.Fatalf("two acquisitions completed at the same instant: %v", arrivals)
		}
		seen[a] = true
	}
}

func TestCapacityStalling(t *testing.T) {
	// L=4, G=2 gives capacity 2. Six senders submitting at once to a
	// single destination must stall.
	params := Params{P: 7, L: 4, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		if p.ID() < 6 {
			p.Send(6, 0, 0, 0)
			return
		}
		for i := 0; i < 6; i++ {
			p.Recv()
		}
	}, WithDeliveryPolicy(DeliverMaxLatency))
	if res.StallEvents == 0 {
		t.Fatal("expected stalling with 6 senders and capacity 2")
	}
	if res.StallCycles == 0 {
		t.Fatal("expected nonzero stall cycles")
	}
}

func TestStallFreeWithinCapacity(t *testing.T) {
	// capacity = ceil(8/2) = 4 senders is fine.
	params := Params{P: 5, L: 8, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		if p.ID() < 4 {
			p.Send(4, 0, 0, 0)
			return
		}
		for i := 0; i < 4; i++ {
			p.Recv()
		}
	}, WithStrictStallFree())
	if res.StallEvents != 0 {
		t.Fatalf("stall events = %d", res.StallEvents)
	}
}

func TestStrictStallFreeErrors(t *testing.T) {
	params := Params{P: 7, L: 4, O: 1, G: 2}
	m := NewMachine(params, WithStrictStallFree())
	_, err := m.Run(func(p Proc) {
		if p.ID() < 6 {
			p.Send(6, 0, 0, 0)
			return
		}
		for i := 0; i < 6; i++ {
			p.Recv()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("expected stall error, got %v", err)
	}
}

func TestHotSpotDeliveryRate(t *testing.T) {
	// Under the Stalling Rule the hot spot still receives one message
	// every G steps, so total receive time for h messages is about
	// G*h even though senders stall (Section 2.2 discussion).
	params := Params{P: 17, L: 8, O: 1, G: 4}
	h := int64(16)
	res := run(t, params, func(p Proc) {
		if p.ID() < 16 {
			p.Send(16, 0, 0, 0)
			return
		}
		for i := int64(0); i < h; i++ {
			p.Recv()
		}
	}, WithDeliveryPolicy(DeliverMinLatency))
	min := params.G * (h - 1)
	max := params.G*h + 3*params.L
	if res.Time < min || res.Time > max {
		t.Fatalf("hot-spot completion %d outside [%d, %d]", res.Time, min, max)
	}
}

func TestDeadlockDetected(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	m := NewMachine(params)
	_, err := m.Run(func(p Proc) {
		if p.ID() == 1 {
			p.Recv() // nobody sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		params Params
		prog   Program
		want   string
	}{
		{"single", Params{P: 2, L: 8, O: 1, G: 2}, func(p Proc) {
			if p.ID() == 0 {
				panic("boom")
			}
		}, "processor 0 panicked: boom"},
		// Several processors panic in one run: the report is the
		// earliest panic in simulated time, on every repetition.
		{"first-of-many", Params{P: 6, L: 8, O: 1, G: 2}, func(p Proc) {
			p.Compute(int64(1 + p.ID()))
			if p.ID()%2 == 1 {
				panic("boom")
			}
			p.Compute(50)
		}, "processor 1 panicked: boom"},
	} {
		m := NewMachine(tc.params)
		for i := 0; i < 3; i++ {
			_, err := m.Run(tc.prog)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s run %d: error %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
}

func TestSendValidation(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	m := NewMachine(params)
	_, err := m.Run(func(p Proc) {
		if p.ID() == 0 {
			p.Send(5, 0, 0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "invalid destination") {
		t.Fatalf("expected destination error, got %v", err)
	}
	_, err = m.Run(func(p Proc) {
		if p.ID() == 0 {
			p.Send(0, 0, 0, 0)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("expected self-send error, got %v", err)
	}
}

// pollBound is the clock past which a polling test gives up: far beyond
// any arrival the tests expect, so an engine that loses a message fails
// the test in milliseconds instead of hanging it.
const pollBound = 1000

func TestTryRecvPolls(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	var polls int
	res := run(t, params, func(p Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 9, 0)
		case 1:
			for {
				m, ok := p.TryRecv()
				if ok {
					if m.Payload != 9 {
						panic("wrong payload")
					}
					return
				}
				polls++
				if p.Now() > pollBound {
					panic(fmt.Sprintf("no message by clock %d: the engine lost it", p.Now()))
				}
			}
		}
	}, WithDeliveryPolicy(DeliverMaxLatency))
	// Delivery at 9; each failed poll costs one cycle, so there are
	// exactly 9 failed polls before success at clock 9.
	if polls != 9 {
		t.Errorf("polls = %d, want 9", polls)
	}
	if res.ProcTimes[1] != 10 {
		t.Errorf("receiver clock = %d, want 10", res.ProcTimes[1])
	}
}

// TestRecvIntoEmptyDoesNotCross pins that a RecvInto of no messages
// performs nothing: the Send before it stays in the batch instead of
// crossing into the engine, as a Recv would make it. So do a SendFrom
// and a TryRecvInto of none, whose loops would issue nothing either.
func TestRecvIntoEmptyDoesNotCross(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	run(t, params, func(p Proc) {
		if p.ID() == 1 {
			p.Recv()
			return
		}
		p.Send(1, 0, 1, 0)
		p.RecvInto(nil)
		p.SendFrom(nil)
		if n := p.TryRecvInto(make([]Message, 0, 1), 100); n != 0 {
			panic(fmt.Sprintf("TryRecvInto of no room stored %d messages", n))
		}
		if n := p.(*proc).dlen; n != 1 {
			panic(fmt.Sprintf("empty runs left %d operations batched, want the Send's 1", n))
		}
	})
}

// TestRecvIntoDeadlockLeavesNoSlice checks that shutdown empties the
// machine's table of open runs, so a program's RecvInto destination
// does not outlive a Run that deadlocked inside its RecvInto. (The
// deadlock's report is held to the reference's in
// TestEngineMatchesReferenceOnErrors.)
func TestRecvIntoDeadlockLeavesNoSlice(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 2}
	m := NewMachine(params)
	_, err := m.Run(func(p Proc) {
		if p.ID() != 2 {
			p.Send(2, 0, int64(p.ID()), 0)
			return
		}
		p.RecvInto(make([]Message, 3)) // only two arrive
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run error %v, want a deadlock", err)
	}
	for id, run := range m.openRuns {
		if run.recv != nil {
			t.Fatalf("processor %d's RecvInto destination (%d of %d stored) outlived the Run", id, run.n, len(run.recv))
		}
	}
}

func TestWaitUntil(t *testing.T) {
	params := Params{P: 1, L: 8, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		p.WaitUntil(100)
		p.WaitUntil(50) // no-op: clock never moves backwards
		p.Compute(5)
	})
	if res.Time != 105 {
		t.Errorf("Time = %d, want 105", res.Time)
	}
}

func TestComputeAccumulates(t *testing.T) {
	params := Params{P: 1, L: 8, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		for i := 0; i < 10; i++ {
			p.Compute(3)
		}
		p.Compute(0) // free
	})
	if res.Time != 30 {
		t.Errorf("Time = %d, want 30", res.Time)
	}
}

func TestBuffered(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 2}
	var depth int
	run(t, params, func(p Proc) {
		switch p.ID() {
		case 0, 1:
			p.Send(2, 0, 0, 0)
		case 2:
			p.WaitUntil(50) // both messages long since arrived
			depth = p.Buffered()
			p.Recv()
			p.Recv()
		}
	}, WithDeliveryPolicy(DeliverMinLatency))
	if depth != 2 {
		t.Errorf("Buffered() = %d, want 2", depth)
	}
}

func TestMaxBufferDepthTracked(t *testing.T) {
	params := Params{P: 5, L: 8, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		if p.ID() < 4 {
			p.Send(4, 0, 0, 0)
			return
		}
		p.WaitUntil(100)
		for i := 0; i < 4; i++ {
			p.Recv()
		}
	})
	if res.MaxBufferDepth != 4 {
		t.Errorf("MaxBufferDepth = %d, want 4", res.MaxBufferDepth)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	params := Params{P: 8, L: 16, O: 2, G: 4}
	prog := func(p Proc) {
		n := p.P()
		for i := 0; i < 3; i++ {
			p.Send((p.ID()+1+i)%n, 0, int64(i), 0)
		}
		for i := 0; i < 3; i++ {
			p.Recv()
		}
	}
	// The WithSeed contract: run i is a deterministic function of
	// (seed, i), so two machines with the same seed must agree run for
	// run — including later runs, whose streams are re-derived.
	for _, pol := range []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom} {
		m1 := NewMachine(params, WithDeliveryPolicy(pol), WithSeed(99))
		m2 := NewMachine(params, WithDeliveryPolicy(pol), WithSeed(99))
		for i := 0; i < 3; i++ {
			a, err := m1.Run(prog)
			if err != nil {
				t.Fatalf("%v run %d: %v", pol, i, err)
			}
			b, err := m2.Run(prog)
			if err != nil {
				t.Fatalf("%v run %d: %v", pol, i, err)
			}
			if a.Time != b.Time || a.StallCycles != b.StallCycles || a.LastDelivery != b.LastDelivery {
				t.Fatalf("%v run %d: same-seed machines diverged %+v vs %+v", pol, i, a, b)
			}
		}
	}
}

func TestConsecutiveRandomRunsDiffer(t *testing.T) {
	// Repeated Run calls on one machine must sample fresh admissible
	// executions: under DeliverRandom the delivery instant of a single
	// message varies within (submit, submit+L], so across several runs
	// the receiver's completion time must not be constant. (With the
	// old fixed reseed every trial replayed the identical execution.)
	params := Params{P: 2, L: 20, O: 1, G: 2}
	m := NewMachine(params, WithDeliveryPolicy(DeliverRandom), WithSeed(42))
	prog := func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 0, 0, 0)
		} else {
			p.Recv()
		}
	}
	times := map[int64]bool{}
	for i := 0; i < 16; i++ {
		res, err := m.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		times[res.Time] = true
	}
	if len(times) < 2 {
		t.Fatalf("16 DeliverRandom trials all completed at the same time %v; runs are not independent", times)
	}
}

func TestFirstRunMatchesFreshMachine(t *testing.T) {
	// Run 0 uses the seed unchanged, so a machine's first run equals a
	// fresh same-seed machine's first run (recorded goldens stay valid).
	params := Params{P: 4, L: 16, O: 1, G: 2}
	prog := func(p Proc) {
		n := p.P()
		for d := 1; d < n; d++ {
			p.Send((p.ID()+d)%n, 0, 0, 0)
		}
		for d := 1; d < n; d++ {
			p.Recv()
		}
	}
	a, err := NewMachine(params, WithDeliveryPolicy(DeliverRandom), WithSeed(7)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMachine(params, WithDeliveryPolicy(DeliverRandom), WithSeed(7)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.LastDelivery != b.LastDelivery {
		t.Fatalf("first runs differ: %+v vs %+v", a, b)
	}
}

func TestAllMessagesDeliveredExactlyOnce(t *testing.T) {
	// Random traffic; count deliveries per (src,dst,payload) triple.
	const p = 10
	params := Params{P: p, L: 12, O: 1, G: 3}
	var received [p * p]int64
	prog := func(pr Proc) {
		id := pr.ID()
		for j := 0; j < p; j++ {
			if j != id {
				pr.Send(j, 0, int64(id*p+j), 0)
			}
		}
		for k := 0; k < p-1; k++ {
			m := pr.Recv()
			atomic.AddInt64(&received[m.Payload], 1)
		}
	}
	for _, pol := range []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom} {
		for i := range received {
			received[i] = 0
		}
		m := NewMachine(params, WithDeliveryPolicy(pol), WithSeed(7))
		if _, err := m.Run(prog); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for src := 0; src < p; src++ {
			for dst := 0; dst < p; dst++ {
				want := int64(1)
				if src == dst {
					want = 0
				}
				if got := received[src*p+dst]; got != want {
					t.Fatalf("%v: message %d->%d delivered %d times", pol, src, dst, got)
				}
			}
		}
	}
}

func TestLatencyBoundRespected(t *testing.T) {
	// In a stall-free execution every message must arrive within L of
	// its submission. The receiver checks arrival times against the
	// senders' submission schedule.
	params := Params{P: 2, L: 10, O: 1, G: 5}
	for _, pol := range []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom} {
		var arrivals []int64
		m := NewMachine(params, WithDeliveryPolicy(pol), WithSeed(3))
		res, err := m.Run(func(p Proc) {
			switch p.ID() {
			case 0:
				for i := 0; i < 5; i++ {
					p.Send(1, 0, p.Now(), 0)
				}
			case 1:
				for i := 0; i < 5; i++ {
					p.Recv()
					arrivals = append(arrivals, p.Now())
				}
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if res.StallEvents != 0 {
			t.Fatalf("%v: unexpected stalls", pol)
		}
		// Submissions at 1, 6, 11, 16, 21; deliveries within L=10.
		for i, a := range arrivals {
			sub := int64(1 + 5*i)
			acq := a - params.O
			if acq < sub+1 || acq > sub+params.L {
				t.Fatalf("%v: message %d acquired at %d, submitted at %d, outside (sub, sub+L]", pol, i, acq, sub)
			}
		}
	}
}

func TestRunReusableAndIndependent(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	m := NewMachine(params)
	prog := func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 0, 0, 0)
		} else {
			p.Recv()
		}
	}
	r1, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || r2.MessagesSent != 1 {
		t.Fatalf("second run differs: %+v vs %+v", r1, r2)
	}
}

func TestP1NoCommunication(t *testing.T) {
	params := Params{P: 1, L: 2, O: 1, G: 2}
	res := run(t, params, func(p Proc) {
		p.Compute(17)
	})
	if res.Time != 17 || res.MessagesSent != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestNegativeComputePanics(t *testing.T) {
	params := Params{P: 1, L: 2, O: 1, G: 2}
	m := NewMachine(params)
	_, err := m.Run(func(p Proc) { p.Compute(-1) })
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected negative-cycles error, got %v", err)
	}
}

func TestNewMachinePanicsOnInvalidParams(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewMachine with invalid params did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want a string message", r)
		}
		if !strings.HasPrefix(msg, "logp: NewMachine: ") {
			t.Fatalf("panic message %q lacks the logp: NewMachine: prefix", msg)
		}
	}()
	NewMachine(Params{P: 0, L: 1, O: 1, G: 1})
}

// TestNewMachineRejectsUnknownOptions checks that a DeliveryPolicy or
// AcceptOrder outside the declared constants fails at construction,
// naming the value, instead of running as some other choice or failing
// at the first acceptance.
func TestNewMachineRejectsUnknownOptions(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	for _, c := range []struct {
		opt  Option
		want string
	}{
		{WithDeliveryPolicy(DeliveryPolicy(7)), "logp: NewMachine: unknown delivery policy DeliveryPolicy(7)"},
		{WithAcceptOrder(AcceptOrder(9)), "logp: NewMachine: unknown accept order AcceptOrder(9)"},
	} {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			NewMachine(params, c.opt)
			return ""
		}()
		if msg != c.want {
			t.Errorf("NewMachine panic = %q, want %q", msg, c.want)
		}
	}
}

// TestNewMachineValidateParity checks the unified constructor path:
// NewMachine panics exactly when Params.Validate errors, and the panic
// message carries the Validate diagnosis.
func TestNewMachineValidateParity(t *testing.T) {
	cases := []Params{
		{P: 1, L: 2, O: 1, G: 2},
		{P: 16, L: 32, O: 2, G: 4},
		{P: 2, L: 8, O: 8, G: 8},
		{P: 0, L: 8, O: 1, G: 2},
		{P: 2, L: 8, O: 0, G: 2},
		{P: 2, L: 8, O: 1, G: 1},
		{P: 2, L: 8, O: 4, G: 3},
		{P: 2, L: 4, O: 1, G: 8},
		{P: -3, L: 0, O: 0, G: 0},
	}
	for _, p := range cases {
		p := p
		verr := p.Validate()
		panicked, msg := func() (got bool, msg string) {
			defer func() {
				if r := recover(); r != nil {
					got = true
					msg = fmt.Sprint(r)
				}
			}()
			NewMachine(p)
			return
		}()
		if panicked != (verr != nil) {
			t.Errorf("%v: NewMachine panicked=%v but Validate err=%v", p, panicked, verr)
			continue
		}
		if verr != nil {
			detail := strings.TrimPrefix(verr.Error(), "logp: ")
			if !strings.Contains(msg, detail) {
				t.Errorf("%v: panic %q does not carry the Validate diagnosis %q", p, msg, detail)
			}
		}
	}
}

func TestPipelinedSendTiming(t *testing.T) {
	// A processor sending k messages back to back finishes its last
	// submission at o + (k-1)*G — the pipelining the paper uses for
	// routing capacity-bounded relations in 2o + G(h-1) + L.
	params := Params{P: 9, L: 16, O: 2, G: 4}
	k := int64(8)
	res := run(t, params, func(p Proc) {
		if p.ID() == 0 {
			for j := int64(0); j < k; j++ {
				p.Send(int(j)+1, 0, 0, 0)
			}
			return
		}
		if p.ID() <= int(k) {
			p.Recv()
		}
	})
	want := params.O + (k-1)*params.G
	if res.ProcTimes[0] != want {
		t.Errorf("sender finished at %d, want %d", res.ProcTimes[0], want)
	}
	// Last receiver acquires by o+(k-1)G + L + o.
	bound := want + params.L + params.O
	for i := 1; i <= int(k); i++ {
		if res.ProcTimes[i] > bound {
			t.Errorf("receiver %d finished at %d > bound %d", i, res.ProcTimes[i], bound)
		}
	}
}

func TestBufferBoundedWhenReceiverKeepsPace(t *testing.T) {
	// Section 2.2 argues G <= L is needed for bounded input buffers:
	// the medium delivers at most one message per G sustained, and a
	// processor that acquires continuously consumes at the same rate,
	// so the buffer depth stays O(capacity) no matter how long the
	// stream runs.
	params := Params{P: 2, L: 12, O: 1, G: 4}
	const stream = 64
	res := run(t, params, func(p Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < stream; i++ {
				p.Send(1, 0, int64(i), 0)
			}
		case 1:
			for i := 0; i < stream; i++ {
				p.Recv()
			}
		}
	}, WithDeliveryPolicy(DeliverMinLatency))
	if res.MaxBufferDepth > int(params.Capacity())+1 {
		t.Fatalf("buffer depth %d exceeds O(capacity) = %d for a pacing receiver",
			res.MaxBufferDepth, params.Capacity())
	}
}

func TestBufferGrowsWhenReceiverIdles(t *testing.T) {
	// The bounded-buffer property is a rate-matching argument, not an
	// absolute guarantee: a receiver that delays acquisition
	// accumulates the whole stream.
	params := Params{P: 2, L: 12, O: 1, G: 4}
	const stream = 32
	res := run(t, params, func(p Proc) {
		switch p.ID() {
		case 0:
			for i := 0; i < stream; i++ {
				p.Send(1, 0, int64(i), 0)
			}
		case 1:
			p.WaitUntil(10000)
			for i := 0; i < stream; i++ {
				p.Recv()
			}
		}
	})
	if res.MaxBufferDepth != stream {
		t.Fatalf("idle receiver buffered %d, want the full stream %d", res.MaxBufferDepth, stream)
	}
}

func TestParameterScalingLinearity(t *testing.T) {
	// Metamorphic property: doubling (L, o, G) together doubles every
	// communication delay in the model, so a pure-communication
	// program's completion time scales by exactly 2.
	prog := func(p Proc) {
		n := p.P()
		for k := 1; k <= 3; k++ {
			p.Send((p.ID()+k)%n, 0, int64(k), 0)
		}
		for k := 1; k <= 3; k++ {
			p.Recv()
		}
	}
	base := Params{P: 8, L: 12, O: 1, G: 3}
	doubled := Params{P: 8, L: 24, O: 2, G: 6}
	r1 := run(t, base, prog)
	r2 := run(t, doubled, prog)
	if r2.Time != 2*r1.Time {
		t.Fatalf("doubled parameters gave time %d, want exactly 2*%d", r2.Time, r1.Time)
	}
	if r2.MessagesSent != r1.MessagesSent {
		t.Fatalf("message count changed: %d vs %d", r2.MessagesSent, r1.MessagesSent)
	}
}

func TestLargeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale smoke test")
	}
	// p = 512 with dense neighbor traffic: exercises the engine's
	// event machinery at scale; invariants enforced internally.
	params := Params{P: 512, L: 32, O: 2, G: 4}
	res := run(t, params, func(p Proc) {
		n := p.P()
		for k := 1; k <= 8; k++ {
			p.Send((p.ID()+k*7)%n, 0, int64(k), 0)
		}
		for k := 1; k <= 8; k++ {
			p.Recv()
		}
	}, WithDeliveryPolicy(DeliverRandom), WithSeed(3))
	if res.MessagesSent != 512*8 {
		t.Fatalf("messages = %d", res.MessagesSent)
	}
}
