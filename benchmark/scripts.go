package main

import (
	"repro/internal/logp"
	"repro/internal/relation"
)

// The Script workloads below are the benchmark's own copies of the
// scale-mode programs (cyclic-shift route, CB barrier, randomized
// route, ring, span-halving broadcast). They are rewritten here, not
// imported, so the benchmark depends only on the layers' public APIs.
// Every script keeps its per-processor state in id-indexed slices and
// is reset in place before each run, so a warm op allocates nothing
// for its inputs.

// routeScript realizes the cyclic-shift h-relation: processor id sends
// its j-th message to (id + 1 + j) mod p, running at most w sends ahead
// of its receives. With w = ceil(L/G) the window hides the latency and
// the route is stall-free.
type routeScript struct {
	p, h, w    int
	sent, rcvd []int32
}

func newRouteScript(p, h, w int) *routeScript {
	return &routeScript{p: p, h: h, w: w, sent: make([]int32, p), rcvd: make([]int32, p)}
}

func (s *routeScript) reset() {
	clear(s.sent)
	clear(s.rcvd)
}

func (s *routeScript) Active(int) bool { return true }

func (s *routeScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	switch sent, rcvd := int(s.sent[id]), int(s.rcvd[id]); {
	case sent < s.h && sent-rcvd < s.w:
		s.sent[id]++
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id + 1 + sent) % s.p, Tag: int32(sent), Payload: int64(id)}
	case rcvd < s.h:
		s.rcvd[id]++
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// barrierScript is the combine-and-broadcast barrier on the complete
// d-ary tree in BFS layout: leaves report up, the root turns around and
// the acknowledgement floods down. Interior nodes are passive until
// their first report arrives.
type barrierScript struct {
	p, d int
	step []int32
}

func newBarrierScript(p, d int) *barrierScript {
	return &barrierScript{p: p, d: d, step: make([]int32, p)}
}

func (s *barrierScript) reset() { clear(s.step) }

func (s *barrierScript) children(id int) (lo, n int) {
	lo = s.d*id + 1
	if lo < s.p {
		n = min(s.p-lo, s.d)
	}
	return lo, n
}

func (s *barrierScript) Active(id int) bool {
	_, n := s.children(id)
	return n == 0
}

func (s *barrierScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	lo, c := s.children(id)
	k := int(s.step[id])
	s.step[id]++
	if id == 0 {
		switch {
		case k < c:
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		case k < 2*c:
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: lo + (k - c), Tag: 2}
		default:
			return logp.ScriptOp{Kind: logp.ScriptHalt}
		}
	}
	switch {
	case k < c:
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	case k == c:
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: (id - 1) / s.d, Tag: 1}
	case k == c+1:
		return logp.ScriptOp{Kind: logp.ScriptRecv}
	case k < 2*c+2:
		return logp.ScriptOp{Kind: logp.ScriptSend, Dst: lo + (k - c - 2), Tag: 2}
	default:
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
}

// randScript routes the h-relation formed by h random permutations,
// processor id's k-th message going to permutation k's image of id,
// with sends at most w ahead of receives. Fixed points would be
// self-sends; they are skipped, and since a permutation fixes id
// exactly when its inverse does, id still expects as many messages as
// it sends.
type randScript struct {
	p, h, w        int
	rel            *relation.RandomRegularStream
	k, issued, got []int32
}

func newRandScript(p, h, w int, rel *relation.RandomRegularStream) *randScript {
	return &randScript{
		p: p, h: h, w: w, rel: rel,
		k: make([]int32, p), issued: make([]int32, p), got: make([]int32, p),
	}
}

func (s *randScript) reset() {
	clear(s.k)
	clear(s.issued)
	clear(s.got)
}

func (s *randScript) Active(int) bool { return true }

func (s *randScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	for {
		k, issued, got := int(s.k[id]), int(s.issued[id]), int(s.got[id])
		switch {
		case k < s.h && issued-got < s.w:
			s.k[id]++
			dst := s.rel.Pair(id, k).Dst
			if dst == id {
				continue
			}
			s.issued[id]++
			return logp.ScriptOp{Kind: logp.ScriptSend, Dst: dst, Tag: int32(k), Payload: int64(id)}
		case k < s.h || got < issued:
			s.got[id]++
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		default:
			return logp.ScriptOp{Kind: logp.ScriptHalt}
		}
	}
}

// ringScript pipelines rounds messages around the ring, then receives
// them: every processor is active, the replay's all-active worst case.
type ringScript struct {
	p, rounds int
	step      []int32
}

func newRingScript(p, rounds int) *ringScript {
	return &ringScript{p: p, rounds: rounds, step: make([]int32, p)}
}

func (s *ringScript) reset() { clear(s.step) }

func (s *ringScript) Active(int) bool { return true }

func (s *ringScript) Next(id int, _ logp.ScriptResult) logp.ScriptOp {
	k := int(s.step[id])
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

// bcastScript broadcasts from processor 0 by span halving: the owner of
// span [id, hi] hands [mid, hi] to processor mid and keeps [id, mid-1].
type bcastScript struct {
	p int
	// hi[id]: -1 untouched, -2 awaiting its span, otherwise the top of
	// the span id still owns.
	hi []int64
}

func newBcastScript(p int) *bcastScript {
	s := &bcastScript{p: p, hi: make([]int64, p)}
	s.reset()
	return s
}

func (s *bcastScript) reset() {
	for i := range s.hi {
		s.hi[i] = -1
	}
}

func (s *bcastScript) Active(id int) bool { return id == 0 }

func (s *bcastScript) Next(id int, prev logp.ScriptResult) logp.ScriptOp {
	switch s.hi[id] {
	case -1:
		if id != 0 {
			s.hi[id] = -2
			return logp.ScriptOp{Kind: logp.ScriptRecv}
		}
		s.hi[id] = int64(s.p - 1)
	case -2:
		s.hi[id] = prev.Msg.Payload
	}
	h := s.hi[id]
	if h <= int64(id) {
		return logp.ScriptOp{Kind: logp.ScriptHalt}
	}
	mid := int64(id) + (h-int64(id)+1)/2
	s.hi[id] = mid - 1
	return logp.ScriptOp{Kind: logp.ScriptSend, Dst: int(mid), Tag: 0, Payload: h}
}
