package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bsp"
	"repro/internal/logp"
	"repro/internal/logp/reference"
)

// probeProc passes a host processor's calls through to the substrate
// underneath while counting two situations the routers must survive:
// a TryRecv that fails although a message is buffered (the gap holds
// it back), and a sorting block whose messages arrive out of send
// order. TryRecvInto is its definition, a loop of the probe's own
// Buffered, Now and TryRecv, so the probe sees every poll.
type probeProc struct {
	logp.Proc
	failedPolls, unsortedBlocks *int
}

func (p *probeProc) TryRecv() (logp.Message, bool) {
	m, ok := p.Proc.TryRecv()
	if !ok {
		*p.failedPolls++
	}
	return m, ok
}

func (p *probeProc) TryRecvInto(dst []logp.Message, until int64) int {
	n := 0
	for n < len(dst) && p.Buffered() > 0 && p.Now() <= until {
		if m, ok := p.TryRecv(); ok {
			dst[n] = m
			n++
		}
	}
	return n
}

// RecvInto counts the runs in which two consecutive messages of one
// bitonic block arrived in the reverse of their sorted send order.
func (p *probeProc) RecvInto(dst []logp.Message) {
	p.Proc.RecvInto(dst)
	for i := 1; i < len(dst); i++ {
		x, y := &dst[i-1], &dst[i]
		if x.Tag == tagSort && y.Tag == tagSort && x.Aux == y.Aux &&
			compareItems(x.Body.(*bsp.Message), y.Body.(*bsp.Message)) > 0 {
			*p.unsortedBlocks++
			return
		}
	}
}

// hostPins holds each case's HostTime and Breakdown, recorded before
// the routers' Step 4 polls and block sends were batched into single
// engine crossings: any change to what the routers simulate shows here.
var hostPins = map[string]string{
	"deterministic/max-latency/h=1": "1314 [{0 1 0 92 1076 18 1136}]",
	"deterministic/max-latency/h=3": "1447 [{0 3 0 92 1205 22 1269}]",
	"deterministic/max-latency/h=8": "1775 [{0 8 0 92 1525 32 1599}]",
	"deterministic/min-latency/h=1": "1061 [{0 1 0 38 961 18 987}]",
	"deterministic/min-latency/h=3": "1192 [{0 3 0 38 1094 22 1120}]",
	"deterministic/min-latency/h=8": "1516 [{0 8 0 38 1418 32 1450}]",
	"deterministic/random/h=1":      "1200 [{0 1 0 59 1027 18 1068}]",
	"deterministic/random/h=3":      "1330 [{0 3 0 59 1169 22 1210}]",
	"deterministic/random/h=8":      "1685 [{0 8 0 59 1504 32 1550}]",
	"randomized/max-latency/h=1":    "414 [{0 1 0 92 263 18 322}]",
	"randomized/max-latency/h=3":    "414 [{0 3 0 92 263 22 322}]",
	"randomized/max-latency/h=8":    "448 [{0 8 0 92 297 32 356}]",
	"randomized/min-latency/h=1":    "306 [{0 1 0 38 243 18 268}]",
	"randomized/min-latency/h=3":    "306 [{0 3 0 38 243 22 268}]",
	"randomized/min-latency/h=8":    "340 [{0 8 0 38 277 32 302}]",
	"randomized/random/h=1":         "350 [{0 1 0 59 248 18 289}]",
	"randomized/random/h=3":         "350 [{0 3 0 59 248 22 289}]",
	"randomized/random/h=8":         "394 [{0 8 0 59 282 32 323}]",
	"offline/max-latency/h=1":       "383 [{0 1 0 92 232 18 291}]",
	"offline/max-latency/h=3":       "391 [{0 3 0 92 240 22 299}]",
	"offline/max-latency/h=8":       "411 [{0 8 0 92 260 32 319}]",
	"offline/min-latency/h=1":       "275 [{0 1 0 38 212 18 237}]",
	"offline/min-latency/h=3":       "288 [{0 3 0 38 224 22 259}]",
	"offline/min-latency/h=8":       "308 [{0 8 0 38 244 32 279}]",
	"offline/random/h=1":            "319 [{0 1 0 59 217 18 258}]",
	"offline/random/h=3":            "329 [{0 3 0 59 225 22 266}]",
	"offline/random/h=8":            "337 [{0 8 0 59 243 32 288}]",
}

// TestBSPOnLogPHostMatchesReference runs the routers' host program, the
// LogP program BSPOnLogP.Run hands its machine, on the reference
// interpreter and on the Machine, for every router and delivery policy
// at p = 16 and h in {1, 3, 8}. The two must report the same
// logp.Result, and the Machine's HostTime and Breakdown must equal the
// pinned ones. Among the cases are runs where a TryRecv fails with a
// message buffered and runs where a sorting block arrives out of order.
func TestBSPOnLogPHostMatchesReference(t *testing.T) {
	lp := logp.Params{P: 16, L: 16, O: 1, G: 2}
	var failedPolls, unsortedBlocks int
	for _, router := range allRouters {
		for _, pol := range corePolicies {
			for _, h := range []int{1, 3, 8} {
				name := fmt.Sprintf("%v/%v/h=%d", router, pol, h)
				sim := &BSPOnLogP{LogP: lp, Router: router, Policy: pol, Seed: 1,
					StrictStallFree: router != RouterRandomized}
				prog := regularProgram(lp.P, h)
				host := sim.hostProgram(prog)
				want, err := reference.Run(lp, func(p logp.Proc) {
					host(&probeProc{Proc: p, failedPolls: &failedPolls, unsortedBlocks: &unsortedBlocks})
				}, reference.Config{Policy: pol, Seed: sim.Seed, StrictStallFree: sim.StrictStallFree})
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				wantRes := sim.result(want)
				got, err := sim.Run(prog)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.Host, want) {
					t.Fatalf("%s: Machine result\n%+v\nreference\n%+v", name, got.Host, want)
				}
				if !reflect.DeepEqual(got.Breakdown, wantRes.Breakdown) {
					t.Fatalf("%s: Machine breakdown %v, reference %v", name, got.Breakdown, wantRes.Breakdown)
				}
				if pin, have := hostPins[name], fmt.Sprint(got.HostTime, got.Breakdown); pin != have {
					t.Errorf("%s: HostTime and Breakdown %q, pinned %q", name, have, pin)
				}
			}
		}
	}
	t.Logf("%d failed polls, %d out-of-order block runs", failedPolls, unsortedBlocks)
	if failedPolls == 0 || unsortedBlocks == 0 {
		t.Errorf("no case polled in vain (%d) or received a block out of order (%d)", failedPolls, unsortedBlocks)
	}
}

// TestSendOnGridMatchesPinnedLoop holds sendOnGrid to the loop it
// replaces, a WaitUntil(slot - o) before each SendBody, on the
// reference interpreter: every message is submitted at the same
// instant, and the runs' Results are equal, at capacity 4 and at
// capacity 1, where the blocks stall.
func TestSendOnGridMatchesPinnedLoop(t *testing.T) {
	const p, r = 4, 12
	block := func(id int) []logp.Message {
		b := make([]logp.Message, r)
		for c := range b {
			// Cycle c's messages all go to processor c mod p, so at
			// capacity 1 they stall.
			dst := c % p
			if dst == id {
				dst = (id + 1) % p
			}
			b[c] = logp.Message{Dst: dst, Tag: 5, Payload: int64(id*r + c)}
			if (id+c)%5 == 0 {
				b[c].Dst = -1 // nothing goes out in this cycle
			}
		}
		return b
	}
	inDeg := make([]int, p)
	for id := range p {
		for _, m := range block(id) {
			if m.Dst >= 0 {
				inDeg[m.Dst]++
			}
		}
	}
	const base = 7
	recv := func(pr logp.Proc) {
		pr.RecvInto(make([]logp.Message, inDeg[pr.ID()]))
	}
	grid := func(pr logp.Proc) {
		a := &bspAdapter{lp: pr}
		a.sendOnGrid(block(pr.ID()), base)
		recv(pr)
	}
	pinned := func(pr logp.Proc) {
		params := pr.Params()
		for c, m := range block(pr.ID()) {
			if m.Dst >= 0 {
				pr.WaitUntil(base + int64(c+1)*params.G - params.O)
				pr.SendBody(m.Dst, m.Tag, m.Payload, m.Aux, m.Body)
			}
		}
		recv(pr)
	}
	for _, lp := range []logp.Params{{P: p, L: 8, O: 1, G: 2}, {P: p, L: 2, O: 1, G: 2}} {
		run := func(prog logp.Program) (logp.Result, []string) {
			var submits []string
			res, err := reference.Run(lp, prog, reference.Config{Seed: 1, Sink: func(ev logp.Event) {
				if ev.Kind == logp.EvSubmit {
					submits = append(submits, fmt.Sprint(ev.Time, ev.Msg.Payload))
				}
			}})
			if err != nil {
				t.Fatalf("%+v: %v", lp, err)
			}
			slices.Sort(submits)
			return res, submits
		}
		wantRes, want := run(pinned)
		gotRes, got := run(grid)
		if !reflect.DeepEqual(gotRes, wantRes) || !slices.Equal(got, want) {
			t.Fatalf("%+v: sendOnGrid gave %+v, submissions %v;\nthe pinned loop %+v, submissions %v", lp, gotRes, got, wantRes, want)
		}
		if lp.Capacity() == 1 && wantRes.StallEvents == 0 {
			t.Fatalf("%+v: no stall at capacity 1", lp)
		}
	}
}
