package logp

import (
	"fmt"
	"math"
	"testing"
)

// Steady-state allocation guards for the script engines. A machine
// kept warm across Runs (the bench warm pool) must reach a
// fixed allocation footprint: the arena re-hands the same proc
// records, the record slab and heaps are truncated in place, and the
// ready/stage structures are value-typed. What remains per Run is
// pinned here to a small documented constant, so any change that
// reintroduces per-proc or per-message allocation on the steady path
// fails loudly instead of surfacing as a silent bytes/proc regression
// in BENCH_logp.json.

// guardRingScript is the all-active pipeline workload (sends rounds
// messages around the ring, then drains them) with a rewind so one
// value replays the identical run without reallocating its state.
type guardRingScript struct {
	p, rounds int
	step      []int32
}

func newGuardRingScript(p, rounds int) *guardRingScript {
	return &guardRingScript{p: p, rounds: rounds, step: make([]int32, p)}
}

func (s *guardRingScript) rewind() { clear(s.step) }

func (s *guardRingScript) Active(int) bool { return true }

func (s *guardRingScript) Next(id int, prev ScriptResult) ScriptOp {
	k := int(s.step[id])
	s.step[id]++
	switch {
	case k < s.rounds:
		return ScriptOp{Kind: ScriptSend, Dst: (id + 1) % s.p, Tag: int32(k), Payload: int64(id)}
	case k < 2*s.rounds:
		return ScriptOp{Kind: ScriptRecv}
	default:
		return ScriptOp{Kind: ScriptHalt}
	}
}

// guardBcastScript is the lazy workload: only processor 0 starts
// active and finished processors halt, exercising template
// instantiation and record recycling on the steady path.
type guardBcastScript struct {
	p  int
	hi []int64
}

func newGuardBcastScript(p int) *guardBcastScript {
	s := &guardBcastScript{p: p, hi: make([]int64, p)}
	s.rewind()
	return s
}

func (s *guardBcastScript) rewind() {
	for i := range s.hi {
		s.hi[i] = -1
	}
}

func (s *guardBcastScript) Active(id int) bool { return id == 0 }

func (s *guardBcastScript) Next(id int, prev ScriptResult) ScriptOp {
	switch s.hi[id] {
	case -1:
		if id != 0 {
			s.hi[id] = -2
			return ScriptOp{Kind: ScriptRecv}
		}
		s.hi[0] = int64(s.p - 1)
	case -2:
		s.hi[id] = prev.Msg.Payload
	}
	h := s.hi[id]
	if h <= int64(id) {
		return ScriptOp{Kind: ScriptHalt}
	}
	mid := int64(id) + (h-int64(id)+1)/2
	s.hi[id] = mid - 1
	return ScriptOp{Kind: ScriptSend, Dst: int(mid), Tag: 0, Payload: h}
}

type rewindableScript interface {
	Script
	rewind()
}

// measureSteadyAllocs warms m with one RunScript, then reports the
// per-Run allocation count of subsequent identical runs.
func measureSteadyAllocs(t *testing.T, m *Machine, sc rewindableScript) float64 {
	t.Helper()
	if _, err := m.RunScript(sc); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		sc.rewind()
		if _, err := m.RunScript(sc); err != nil {
			panic(err)
		}
	})
}

func TestRunScriptSteadyStateAllocGuard(t *testing.T) {
	const p = 512
	lp := Params{P: p, L: 32, O: 2, G: 4}
	for _, tc := range []struct {
		name string
		sc   rewindableScript
	}{
		{"ring", newGuardRingScript(p, 3)},
		{"bcast", newGuardBcastScript(p)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(lp)
			avg := measureSteadyAllocs(t, m, tc.sc)
			if m.deferred != nil || m.openRuns != nil {
				t.Errorf("RunScript allocated the Program batch or run table (%d, %d slots)", len(m.deferred), len(m.openRuns))
			}
			// The one structural allocation is Result.ProcTimes: it
			// escapes to the caller, so every Run builds a fresh []int64.
			// Everything engine-side — procs, records, heaps — must
			// come from reused storage.
			if avg > 1 {
				t.Errorf("warm sequential RunScript allocates %.1f objects/run, want <= 1 (ProcTimes)", avg)
			}
		})
	}
}

// TestRunScriptSteadyStateAllocsReported prints the measured counts
// under -v for threshold maintenance; it never fails.
func TestRunScriptSteadyStateAllocsReported(t *testing.T) {
	const p = 512
	lp := Params{P: p, L: 32, O: 2, G: 4}
	avg := measureSteadyAllocs(t, NewMachine(lp), newGuardRingScript(p, 3))
	t.Log(fmt.Sprintf("seq ring: %.1f allocs/run", avg))
}

// guardRingProgram is guardRingScript as a Program with the run
// operations beside the plain loops: every processor sends 2*rounds
// messages around the ring, rounds by Send, so at 30 rounds the batch
// crosses full, and rounds by one SendFrom, then drains as many,
// rounds by Recv, then by a TryRecvInto of what is buffered and a
// RecvInto of the rest. The SendFrom messages and the receive
// destinations are built once, for every Run.
func guardRingProgram(p, rounds int) Program {
	src := make([][]Message, p)
	dst := make([][]Message, p)
	for id := range src {
		src[id] = make([]Message, rounds)
		for k := range src[id] {
			src[id][k] = Message{Dst: (id + 1) % p, Tag: int32(rounds + k), Payload: int64(id)}
		}
		dst[id] = make([]Message, rounds)
	}
	return func(pr Proc) {
		id := pr.ID()
		next := (id + 1) % pr.P()
		for k := 0; k < rounds; k++ {
			pr.Send(next, int32(k), int64(id), 0)
		}
		pr.SendFrom(src[id])
		for k := 0; k < rounds; k++ {
			pr.Recv()
		}
		n := pr.TryRecvInto(dst[id], math.MaxInt64)
		pr.RecvInto(dst[id][n:])
	}
}

// TestProgramRunSteadyStateAllocGuard pins a warm Machine.Run's
// allocation: the same count at 3 rounds as at 30, so nothing on the
// per-message path allocates (the batch and run tables included), and
// no more than 12 objects per processor, all from starting its
// coroutine (iter.Pull and sequence's closure), plus Result.ProcTimes.
func TestProgramRunSteadyStateAllocGuard(t *testing.T) {
	const p = 64
	const programRunAllocs = 12*p + 1
	m := NewMachine(Params{P: p, L: 32, O: 2, G: 4})
	count := func(rounds int) float64 {
		prog := guardRingProgram(p, rounds)
		if _, err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := m.Run(prog); err != nil {
				panic(err)
			}
		})
	}
	short, long := count(3), count(30)
	t.Logf("warm Run of a p=%d ring: %.0f allocs at 3 rounds, %.0f at 30", p, short, long)
	if short != long {
		t.Errorf("warm Run allocates %.0f objects at 3 rounds but %.0f at 30; the message path must not allocate", short, long)
	}
	if long > programRunAllocs {
		t.Errorf("warm Run allocates %.0f objects, want <= %d", long, programRunAllocs)
	}
}
