package core

import (
	"reflect"
	"testing"

	"repro/internal/logp"
)

// Exact pins for the executed stalling extension at power-of-two p.
// ExtensionTime is the measured time of the bitonic preprocessing run
// over each overloaded cycle's message pairs, so these values move if
// the replay hands result() the wrong pairs: a cycle's messages
// recovered incompletely, twice, or mixed with another cycle's.

// thm1SpreadBoundaryProg overloads two consecutive cycles at guest 0.
// Every other guest sends once at time 1 (cycle 0) and once after
// WaitUntil(4) (cycle 1). Cycle 0's excess deliveries are spread one
// per G past its boundary, so one of them lands at 8 — cycle 1's own
// delivery boundary — and several are still in flight when cycle 1
// exceeds capacity. The second wave also fans out to guest 1, so the
// two cycles' relations differ.
func thm1SpreadBoundaryProg(p logp.Proc) {
	n := p.P()
	switch id := p.ID(); {
	case id == 0:
		for i := 0; i < 2*(n-1)-(n-2)/2; i++ {
			p.Recv()
		}
	case id == 1:
		p.Send(0, 0, 0, 0)
		p.WaitUntil(4)
		p.Send(0, 1, 0, 0)
		for i := 0; i < (n-2)/2; i++ {
			p.Recv()
		}
	default:
		p.Send(0, 0, int64(id), 0)
		p.WaitUntil(4)
		if id%2 == 0 {
			p.Send(1, 1, int64(id), 0)
		} else {
			p.Send(0, 1, int64(id), 0)
		}
	}
}

func TestThm1ExactExtensionPow2(t *testing.T) {
	cases := []struct {
		name       string
		lp         logp.Params
		run        func(*LogPOnBSP) (Thm1Result, error)
		ext        int64
		violations int64
		cycles     int64
		// hHead is CycleH's nonzero head; every later cycle has h = 0.
		hHead []int64
	}{
		{
			name: "one-cycle-hotspot",
			lp:   logp.Params{P: 16, L: 8, O: 1, G: 2},
			run: func(s *LogPOnBSP) (Thm1Result, error) {
				return s.Run(func(p logp.Proc) {
					if p.ID() != 15 {
						p.Send(15, 0, 0, 0)
						return
					}
					for i := 0; i < 15; i++ {
						p.Recv()
					}
				})
			},
			ext: 363, violations: 1, cycles: 9, hHead: []int64{15},
		},
		{
			name: "multi-cycle-hotspot-p16",
			lp:   logp.Params{P: 16, L: 16, O: 2, G: 4},
			run: func(s *LogPOnBSP) (Thm1Result, error) {
				return s.RunScript(newThm1HotSpotScript(16, 4))
			},
			ext: 1904, violations: 2, cycles: 31, hHead: []int64{30, 30},
		},
		{
			name: "multi-cycle-hotspot-p64",
			lp:   logp.Params{P: 64, L: 16, O: 2, G: 4},
			run: func(s *LogPOnBSP) (Thm1Result, error) {
				return s.RunScript(newThm1HotSpotScript(64, 4))
			},
			ext: 6552, violations: 2, cycles: 127, hHead: []int64{126, 126},
		},
		{
			name: "spread-lands-on-overloaded-boundary",
			lp:   logp.Params{P: 16, L: 8, O: 1, G: 2},
			run: func(s *LogPOnBSP) (Thm1Result, error) {
				return s.Run(thm1SpreadBoundaryProg)
			},
			ext: 652, violations: 2, cycles: 13, hHead: []int64{15, 8},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := &LogPOnBSP{LogP: tc.lp}
			// Twice on one simulator: the warm replay must reproduce the
			// cold one exactly.
			for rep := 0; rep < 2; rep++ {
				res, err := tc.run(sim)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]int64, tc.cycles)
				copy(want, tc.hHead)
				if res.ExtensionTime != tc.ext || res.CapacityViolations != tc.violations ||
					res.Cycles != tc.cycles || !reflect.DeepEqual(res.CycleH, want) {
					t.Fatalf("rep %d: ExtensionTime %d, CapacityViolations %d, Cycles %d, CycleH %v; want %d, %d, %d, %v",
						rep, res.ExtensionTime, res.CapacityViolations, res.Cycles, res.CycleH, tc.ext, tc.violations, tc.cycles, want)
				}
			}
		})
	}
}
