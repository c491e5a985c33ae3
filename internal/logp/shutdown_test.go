package logp

import (
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
