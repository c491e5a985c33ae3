package logp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// panicAllStatesProgram stages one processor in each fast-path state
// at the moment processor 0 panics: processor 1 parks mid-Recv with no
// sender (stateWaitMsg), processor 2 overloads processor 3 until the
// Stalling Rule parks it (stateWaitAccept), and processor 3 runs ahead
// proc-side with a long batch of unflushed local ops before blocking.
func panicAllStatesProgram(p Proc) {
	switch p.ID() {
	case 0:
		p.Compute(40) // let the peers reach their states first
		panic("boom")
	case 1:
		p.Recv() // nobody sends to 1: parks forever
	case 2:
		for i := 0; i < 8; i++ {
			p.Send(3, 1, int64(i), 0) // exceeds capacity: stalls
		}
		p.Recv() // nobody sends to 2: parks forever
	case 3:
		for i := 0; i < 64; i++ {
			p.Compute(1) // batched proc-side, no engine crossing
		}
		for {
			p.Recv() // drains 2's traffic, then parks forever
		}
	}
}

// tracked wraps prog so that each processor's program holds its slot
// of live at 1 while it runs. The deferred decrement runs however the
// program ends: by returning, by panicking, or unwound by the engine's
// shutdown, whose stop is synchronous. So every slot is 0 after Run
// exactly when no program is left parked.
func tracked(live []int, prog Program) Program {
	return func(p Proc) {
		id := p.ID()
		live[id]++
		defer func() { live[id]-- }()
		prog(p)
	}
}

// checkUnwound fails the test if a processor's program is still live.
func checkUnwound(t *testing.T, live []int, when string) {
	t.Helper()
	for id, n := range live {
		if n != 0 {
			t.Fatalf("processor %d's program still live %s", id, when)
		}
	}
}

// TestPanicUnwindsAllFastPathStates is the regression test for the
// batched-commit shutdown path: a processor panic must surface as
// Run's error with every peer coroutine unwound (no leak) and no
// half-committed batched state left in the pooled procs — the same
// machine must produce a bit-identical clean run afterwards.
func TestPanicUnwindsAllFastPathStates(t *testing.T) {
	params := Params{P: 4, L: 8, O: 1, G: 2}
	clean := func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 7, 0)
		}
		if p.ID() == 1 {
			p.Recv()
		}
	}
	t.Run("fast", func(t *testing.T) {
		m := NewMachine(params, WithSeed(11))
		live := make([]int, params.P)
		_, err := m.Run(tracked(live, panicAllStatesProgram))
		if err == nil || !strings.Contains(err.Error(), "processor 0 panicked") {
			t.Fatalf("want processor 0 panic error, got %v", err)
		}
		checkUnwound(t, live, "after failed Run")
		// The pooled procs must carry nothing across: a clean run on the
		// same machine equals the second run of a fresh machine that
		// failed the same way (Run counts, so seeds align).
		got, err := m.Run(tracked(live, clean))
		if err != nil {
			t.Fatalf("clean run after panic: %v", err)
		}
		ref := NewMachine(params, WithSeed(11))
		if _, err := ref.Run(panicAllStatesProgram); err == nil {
			t.Fatal("reference machine did not fail")
		}
		want, err := ref.Run(clean)
		if err != nil {
			t.Fatalf("reference clean run: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-panic run diverged:\ngot  %+v\nwant %+v", got, want)
		}
		checkUnwound(t, live, "after clean run")
	})
}

// TestPanicEachProcEachState rotates the panicking processor through
// every id while the others hold their states, so the shutdown sweep
// is exercised from every panic origin.
func TestPanicEachProcEachState(t *testing.T) {
	params := Params{P: 4, L: 8, O: 1, G: 2}
	for panicker := 0; panicker < 4; panicker++ {
		m := NewMachine(params, WithSeed(uint64(panicker+1)))
		live := make([]int, params.P)
		_, err := m.Run(tracked(live, func(p Proc) {
			id := p.ID()
			if id == panicker {
				p.Compute(30)
				panic("rotating boom")
			}
			switch (id - panicker + 4) % 4 {
			case 1: // immediate block
				p.Recv()
			case 2: // stall on a hot spot, then block
				dst := (id + 1) % 4
				if dst == panicker {
					dst = (dst + 1) % 4
				}
				for i := 0; i < 6; i++ {
					p.Send(dst, 2, int64(i), 0)
				}
				p.Recv()
			default: // run ahead locally, then drain forever
				for i := 0; i < 32; i++ {
					p.Compute(2)
				}
				for {
					p.Recv()
				}
			}
		}))
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("panicker %d: want panic error, got %v", panicker, err)
		}
		checkUnwound(t, live, fmt.Sprintf("after panicker %d's Run", panicker))
	}
}

// errSinkStop is what stopSink panics with to interrupt a Run.
var errSinkStop = errors.New("sink stopped the run")

// runUntilPanic runs prog on m and returns what the Run panicked with.
func runUntilPanic(m *Machine, prog Program) (r any) {
	defer func() { r = recover() }()
	m.Run(prog)
	return nil
}

// TestFailedRunLeavesNoOpenRun fails Runs while a processor has each
// kind of run open: a deadlock inside a RecvInto, and an event sink
// that panics out of Run while a SendFrom is part-way through its
// Sends, with a RecvInto waiting behind it, and while a TryRecvInto
// is part-way through its polls. Shutdown must leave no run, batch
// slot or program behind, and the machine's next Run must equal a
// fresh machine's run of the same program.
func TestFailedRunLeavesNoOpenRun(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 2}
	var stopAt func(Event) bool // armed while non-nil
	m := NewMachine(params, WithEventLog(func(ev Event) {
		if stopAt != nil && stopAt(ev) {
			panic(errSinkStop)
		}
	}))
	clean := func(p Proc) {
		next := (p.ID() + 1) % p.P()
		p.SendFrom([]Message{{Dst: next, Payload: 1}, {Dst: next, Payload: 2}, {Dst: next, Payload: 3}})
		var got [3]Message
		n := p.TryRecvInto(got[:], 12)
		p.RecvInto(got[n:])
		p.Compute(got[0].Payload + got[2].Payload)
	}
	want, err := NewMachine(params).Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	submits, acquires := 0, 0
	for _, tc := range []struct {
		name   string
		stopAt func(Event) bool
		prog   Program
	}{
		{"deadlock-in-recvinto", nil, func(p Proc) {
			if p.ID() != 2 {
				p.Send(2, 0, int64(p.ID()), 0)
				return
			}
			p.RecvInto(make([]Message, 3)) // only two arrive
		}},
		{"mid-sendfrom", func(ev Event) bool {
			if ev.Kind == EvSubmit && ev.Msg.Src == 0 {
				submits++
			}
			return submits == 3
		}, func(p Proc) {
			if p.ID() == 0 {
				p.SendFrom([]Message{{Dst: 1}, {Dst: 2}, {Dst: 1}, {Dst: 2}, {Dst: 1}})
				p.RecvInto(make([]Message, 2)) // its Recv waits in the batch
				return
			}
			p.Recv()
		}},
		{"mid-tryrecvinto", func(ev Event) bool {
			if ev.Kind == EvAcquire && ev.Msg.Dst == 2 {
				acquires++
			}
			return acquires == 2
		}, func(p Proc) {
			if p.ID() != 2 {
				p.SendFrom([]Message{{Dst: 2}, {Dst: 2}})
				return
			}
			p.WaitUntil(40) // all four have arrived
			p.TryRecvInto(make([]Message, 4), 100)
		}},
	} {
		submits, acquires = 0, 0
		live := make([]int, params.P)
		stopAt = tc.stopAt
		r := runUntilPanic(m, tracked(live, tc.prog))
		stopAt = nil
		if tc.stopAt != nil && r != errSinkStop {
			t.Fatalf("%s: Run panicked with %v, want the sink's stop", tc.name, r)
		}
		if tc.stopAt == nil && r != nil {
			t.Fatalf("%s: Run panicked with %v", tc.name, r)
		}
		checkUnwound(t, live, "after "+tc.name)
		for id, run := range m.openRuns {
			if run.send != nil || run.sent != 0 || run.recv != nil || run.n != 0 {
				t.Fatalf("%s: processor %d's run outlived the Run: %+v", tc.name, id, run)
			}
		}
		for i, op := range m.deferred {
			if op != (ScriptOp{}) {
				t.Fatalf("%s: batch slot %d outlived the Run: %+v", tc.name, i, op)
			}
		}
		got, err := m.Run(clean)
		if err != nil {
			t.Fatalf("%s: next Run: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: next Run\n%+v\nwant a fresh machine's\n%+v", tc.name, got, want)
		}
	}
}
