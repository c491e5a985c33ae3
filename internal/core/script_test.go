package core

import (
	"reflect"
	"testing"

	"repro/internal/logp"
)

// The scripted Theorem 1 replay must be indistinguishable from running
// the same script through logp.ScriptAsProgram on the coroutine form:
// identical Thm1Result (including the per-cycle relation degrees) and
// identical errors.

type thm1RingScript struct {
	p, rounds int
	step      []int
}

func newThm1RingScript(p, rounds int) *thm1RingScript {
	return &thm1RingScript{p: p, rounds: rounds, step: make([]int, p)}
}

func (s *thm1RingScript) Active(int) bool { return true }

func (s *thm1RingScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	k := s.step[id]
	s.step[id]++
	switch {
	case k < s.rounds:
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1) % s.p, Tag: int32(k), Payload: int64(id)}
	case k < 2*s.rounds:
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// thm1HotSpotScript drives k messages from every other guest into guest
// 0, overloading its per-cycle fan-in so the stalling extension (the
// executed bitonic program at power-of-two p) is exercised on both
// forms.
type thm1HotSpotScript struct {
	p, k int
	step []int
}

func newThm1HotSpotScript(p, k int) *thm1HotSpotScript {
	return &thm1HotSpotScript{p: p, k: k, step: make([]int, p)}
}

func (s *thm1HotSpotScript) Active(int) bool { return true }

func (s *thm1HotSpotScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	k := s.step[id]
	s.step[id]++
	if id == 0 {
		if k < (s.p-1)*s.k {
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		}
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	if k < s.k {
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: 0, Tag: int32(k), Payload: int64(id)}
	}
	return logp.ScriptOp{Kind: logp.ScriptHalt}
}

// thm1MixedScript touches every remaining operation: local work, a
// pinned wait, a polling loop whose continuation depends on prev.OK,
// and a Buffered probe.
type thm1MixedScript struct {
	p    int
	step []int
}

func newThm1MixedScript(p int) *thm1MixedScript {
	return &thm1MixedScript{p: p, step: make([]int, p)}
}

func (s *thm1MixedScript) Active(int) bool { return true }

func (s *thm1MixedScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	k := s.step[id]
	switch k {
	case 0:
		s.step[id]++
		return logp.ScriptOp{Kind: logp.ScriptCompute, N: int64(id % 3)}
	case 1:
		s.step[id]++
		return logp.ScriptOp{Kind: logp.ScriptWait, N: 2}
	case 2:
		s.step[id]++
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1) % s.p, Tag: 7, Payload: int64(id), Aux: prev.Now}
	case 3:
		if prev.OK {
			s.step[id]++
			return logp.ScriptOp{Kind: logp.ScriptBuffered}
		}
		return logp.ScriptOp{Kind: logp.ScriptTryRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

type thm1BadScript struct{ thm1RingScript }

func (s *thm1BadScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	if id == 1 {
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: 1}
	}
	return s.thm1RingScript.Next(id, prev)
}

type thm1StarvedScript struct{ p int }

func (s *thm1StarvedScript) Active(int) bool { return true }

func (s *thm1StarvedScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	if id%2 == 1 {
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	}
	return logp.ScriptOp{Kind: logp.ScriptHalt}
}

func checkThm1ScriptEquivalence(t *testing.T, sim *LogPOnBSP, mk func() logp.Script) {
	t.Helper()
	sres, serr := sim.RunScript(mk())
	cres, cerr := sim.Run(logp.ScriptAsProgram(mk()))
	if (serr == nil) != (cerr == nil) {
		t.Fatalf("error mismatch: scripted %v vs coroutine %v", serr, cerr)
	}
	if serr != nil {
		if serr.Error() != cerr.Error() {
			t.Fatalf("error text mismatch:\nscripted  %q\ncoroutine %q", serr, cerr)
		}
		return
	}
	if !reflect.DeepEqual(sres, cres) {
		t.Fatalf("Thm1Result mismatch:\nscripted  %+v\ncoroutine %+v", sres, cres)
	}
}

func TestThm1ScriptMatchesCoroutine(t *testing.T) {
	lp := logp.Params{P: 16, L: 16, O: 2, G: 4}
	cases := []struct {
		name string
		sim  *LogPOnBSP
		mk   func() logp.Script
	}{
		{"ring", &LogPOnBSP{LogP: lp}, func() logp.Script { return newThm1RingScript(lp.P, 3) }},
		{"hotspot", &LogPOnBSP{LogP: lp}, func() logp.Script { return newThm1HotSpotScript(lp.P, 4) }},
		{"mixed", &LogPOnBSP{LogP: lp}, func() logp.Script { return newThm1MixedScript(lp.P) }},
		{"folded-ring", &LogPOnBSP{LogP: lp, Fold: 4}, func() logp.Script { return newThm1RingScript(lp.P, 3) }},
		{"folded-hotspot", &LogPOnBSP{LogP: lp, Fold: 2}, func() logp.Script { return newThm1HotSpotScript(lp.P, 4) }},
		{"non-pow2-hotspot", &LogPOnBSP{LogP: logp.Params{P: 12, L: 16, O: 2, G: 4}},
			func() logp.Script { return newThm1HotSpotScript(12, 4) }},
		{"panic", &LogPOnBSP{LogP: lp}, func() logp.Script {
			return &thm1BadScript{*newThm1RingScript(lp.P, 2)}
		}},
		{"deadlock", &LogPOnBSP{LogP: lp}, func() logp.Script { return &thm1StarvedScript{lp.P} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkThm1ScriptEquivalence(t, tc.sim, tc.mk)
		})
	}
}

func TestThm1HotSpotStallsBothForms(t *testing.T) {
	// Sanity that the equivalence above is not vacuous: the hot spot
	// must actually overload its cycles and pay the executed extension.
	lp := logp.Params{P: 16, L: 16, O: 2, G: 4}
	sim := &LogPOnBSP{LogP: lp}
	res, err := sim.RunScript(newThm1HotSpotScript(lp.P, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityViolations == 0 {
		t.Fatalf("hot spot replay reported no capacity violations: %+v", res)
	}
	if res.ExtensionTime <= res.BSPTime {
		t.Fatalf("extension time %d not above plain BSP time %d", res.ExtensionTime, res.BSPTime)
	}
}

// BenchmarkThm1RunScriptRing measures the warm scripted cycle engine on
// a stall-free 2-round ring at p = 32768, the size of the benchmark
// module's thm1-replay-p32k workload.
func BenchmarkThm1RunScriptRing(b *testing.B) {
	const p = 1 << 15
	sim := &LogPOnBSP{LogP: logp.Params{P: p, L: 32, O: 2, G: 4}}
	sc := newThm1RingScript(p, 2)
	if _, err := sim.RunScript(sc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(sc.step)
		if _, err := sim.RunScript(sc); err != nil {
			b.Fatal(err)
		}
	}
}
