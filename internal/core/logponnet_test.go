package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/logp"
	"repro/internal/netsim"
	"repro/internal/topology"
)

func cubeMachine(p int) *LogPOnNet {
	g := topology.Hypercube(p, true)
	params := logp.Params{P: p, L: 2 * int64(g.Diameter()), O: 1, G: 2}
	return NewLogPOnNet(params, netsim.New(g))
}

func TestPingLatencyIsNetworkDistance(t *testing.T) {
	m := cubeMachine(8)
	var got int64
	res, err := m.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(7, 0, 5, 0) // 0 -> 7 is 3 hops on the 3-cube
		case 7:
			got = p.Recv().Payload
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("payload = %d", got)
	}
	// An uncontended packet takes exactly hop-count steps.
	if res.MaxMsgLatency != 3 {
		t.Fatalf("latency = %d, want 3 (hop count)", res.MaxMsgLatency)
	}
	// Submission at o=1, arrival at 4, acquisition ends at 5.
	if res.ProcTimes[7] != 5 {
		t.Fatalf("receiver clock = %d, want 5", res.ProcTimes[7])
	}
}

func TestGapPacesInjection(t *testing.T) {
	m := cubeMachine(4)
	res, err := m.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			for k := 0; k < 4; k++ {
				p.Send(1, 0, int64(k), 0) // neighbor: 1 hop each
			}
		case 1:
			for k := 0; k < 4; k++ {
				p.Recv()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Submissions at 1, 3, 5, 7; each arrives one step later; last
	// acquisition at 8, ends at 9.
	if res.ProcTimes[0] != 7 {
		t.Fatalf("sender clock = %d, want 7", res.ProcTimes[0])
	}
	if res.ProcTimes[1] != 9 {
		t.Fatalf("receiver clock = %d, want 9", res.ProcTimes[1])
	}
	if res.MaxMsgLatency != 1 {
		t.Fatalf("uncontended neighbor latency = %d, want 1", res.MaxMsgLatency)
	}
}

func TestCongestionRaisesLatency(t *testing.T) {
	// Many processors targeting one destination share its incoming
	// links, so observed latency must exceed the uncontended
	// distance.
	const p = 16
	m := cubeMachine(p)
	res, err := m.Run(func(pr logp.Proc) {
		if pr.ID() != 0 {
			pr.Send(0, 0, 1, 0)
			return
		}
		for i := 0; i < p-1; i++ {
			pr.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	diam := int64(4)
	if res.MaxMsgLatency <= diam {
		t.Fatalf("hot-spot latency %d not above diameter %d", res.MaxMsgLatency, diam)
	}
}

func TestCollectiveRunsOnNetwork(t *testing.T) {
	// The CB collective, written for abstract LogP, runs unchanged on
	// the co-simulated network machine.
	const p = 16
	m := cubeMachine(p)
	sums := make([]int64, p)
	res, err := m.Run(func(pr logp.Proc) {
		mb := collective.NewMailbox(pr)
		sums[pr.ID()] = collective.CombineBroadcast(mb, 1, int64(pr.ID()), collective.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(p * (p - 1) / 2)
	for i, s := range sums {
		if s != want {
			t.Fatalf("proc %d sum = %d, want %d", i, s, want)
		}
	}
	if res.Time <= 0 || res.Messages == 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestTopologyOrdering(t *testing.T) {
	// The same LogP collective is slower on a mesh-backed machine
	// than on a hypercube-backed one at equal p (Table 1's ordering,
	// per-message edition).
	const p = 64
	run := func(g *topology.Graph) int64 {
		params := logp.Params{P: p, L: 2 * int64(g.Diameter()), O: 1, G: 2}
		m := NewLogPOnNet(params, netsim.New(g))
		res, err := m.Run(func(pr logp.Proc) {
			n := pr.P()
			for k := 1; k <= 8; k++ {
				pr.Send((pr.ID()+k*11)%n, 0, 1, 0)
			}
			for k := 1; k <= 8; k++ {
				pr.Recv()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	mesh := run(topology.Array(8, 2, false))
	cube := run(topology.Hypercube(p, true))
	if cube >= mesh {
		t.Fatalf("hypercube (%d) not faster than mesh (%d)", cube, mesh)
	}
}

func TestCapacityPacedLatencyWithinLStar(t *testing.T) {
	// Section 5's support claim, per message: if every processor
	// paces its injections at the derived G* and sends a capacity-
	// bounded workload, the worst observed latency stays within the
	// derived L*.
	g := topology.Hypercube(32, true)
	meas := netsim.New(g).MeasureGL([]int{1, 2, 4, 8}, 3, 7, false)
	gStar, lStar := meas.LogPParams()
	params := logp.Params{P: 32, L: int64(lStar), O: 1, G: int64(gStar)}
	m := NewLogPOnNet(params, netsim.New(g))
	cap := int(params.Capacity())
	res, err := m.Run(func(pr logp.Proc) {
		n := pr.P()
		for k := 1; k <= cap; k++ {
			pr.Send((pr.ID()+k)%n, 0, 1, 0)
		}
		for k := 1; k <= cap; k++ {
			pr.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMsgLatency > params.L {
		t.Fatalf("capacity-paced worst latency %d exceeds L* = %d", res.MaxMsgLatency, params.L)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := cubeMachine(4)
	_, err := m.Run(func(p logp.Proc) {
		if p.ID() == 3 {
			p.Recv()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestPanicPropagates(t *testing.T) {
	m := cubeMachine(4)
	_, err := m.Run(func(p logp.Proc) {
		if p.ID() == 1 {
			panic("netlogp boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "netlogp boom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

// pollBound is the clock past which a polling test gives up: far beyond
// any arrival the tests expect, so a simulator that loses a message
// fails the test in milliseconds instead of hanging it.
const pollBound = 1000

func TestTryRecvAndBufferedAndWaitUntil(t *testing.T) {
	m := cubeMachine(4)
	var polls, depth int
	_, err := m.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 9, 0)
			p.Send(1, 0, 10, 0)
		case 1:
			for {
				if _, ok := p.TryRecv(); ok {
					break
				}
				polls++
				if p.Now() > pollBound {
					panic(fmt.Sprintf("no message by clock %d: the co-simulation lost it", p.Now()))
				}
			}
			p.WaitUntil(50)
			depth = p.Buffered()
			p.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if polls == 0 {
		t.Fatal("expected at least one failed poll before arrival")
	}
	if depth != 1 {
		t.Fatalf("Buffered = %d, want 1", depth)
	}
}

func TestDeterministic(t *testing.T) {
	prog := func(p logp.Proc) {
		n := p.P()
		for k := 1; k <= 3; k++ {
			p.Send((p.ID()+k)%n, 0, int64(k), 0)
		}
		for k := 1; k <= 3; k++ {
			p.Recv()
		}
	}
	a, err := cubeMachine(8).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cubeMachine(8).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.MaxMsgLatency != b.MaxMsgLatency {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestNewMachineValidation(t *testing.T) {
	g := topology.Hypercube(8, true)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched p did not panic")
		}
	}()
	NewLogPOnNet(logp.Params{P: 4, L: 8, O: 1, G: 2}, netsim.New(g))
}

func TestUndeliveredMessageCountsInLatency(t *testing.T) {
	// 0 -> 3 is 2 hops on the 2-cube. A message still in flight when
	// the last processor halts is delivered after the run, so it counts
	// in the latency statistics as it does in Messages.
	for _, recv := range []bool{false, true} {
		res, err := cubeMachine(4).Run(func(p logp.Proc) {
			switch p.ID() {
			case 0:
				p.Send(3, 0, 1, 0)
			case 3:
				if recv {
					p.Recv()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != 1 || res.MaxMsgLatency != 2 || res.MeanMsgLatency != 2 {
			t.Fatalf("received=%v: messages %d, max latency %d, mean %v; want 1, 2, 2",
				recv, res.Messages, res.MaxMsgLatency, res.MeanMsgLatency)
		}
	}
}

func TestDeadlockUnwindsParkedPrograms(t *testing.T) {
	const p = 4
	unwound := make([]bool, p)
	_, err := cubeMachine(p).Run(func(pr logp.Proc) {
		defer func() { unwound[pr.ID()] = true }()
		if pr.ID()%2 == 1 {
			pr.Recv() // nobody sends: parked here by the deadlock
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

func TestSendBodyDelivered(t *testing.T) {
	body := new(int)
	var got interface{}
	if _, err := cubeMachine(4).Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.SendBody(3, 0, 0, 0, body)
		case 3:
			got = p.Recv().Body
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got != body {
		t.Fatalf("received body %v, want the sent %p", got, body)
	}
}

// TestWokenGuestCommitsBeforeLaterClocks: a guest that a network step
// wakes commits before any guest with a later clock. Processor 2's
// Compute(100) is the smallest pending clock once processor 0 waits,
// so the network steps toward 100; its step 2 wakes processor 1 at
// clock 3, whose reply, submitted at 4, must still enter the network at
// step 4. Every message then crosses its one link in one step.
func TestWokenGuestCommitsBeforeLaterClocks(t *testing.T) {
	res, err := cubeMachine(4).Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 0, 1, 0)
			p.Recv()
		case 1:
			p.Recv()
			p.Send(0, 0, 2, 0)
		case 2:
			p.Compute(100)
			p.Send(3, 0, 3, 0)
		case 3:
			p.Recv()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxMsgLatency != 1 {
		t.Errorf("max latency = %d, want 1: every message crosses one link", res.MaxMsgLatency)
	}
	// 0 submits at 1; 1 acquires at 2 and replies at 4; 0 acquires the
	// reply at 5 and ends at 6. 2 submits at 101; 3 acquires at 102.
	if want := []int64{6, 4, 101, 103}; !slices.Equal(res.ProcTimes, want) {
		t.Errorf("processor clocks = %v, want %v", res.ProcTimes, want)
	}
}
