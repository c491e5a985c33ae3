package core

import (
	"fmt"
	"slices"

	"repro/internal/logp"
	"repro/internal/runq"
)

// guests is the processor side of core's LogP engines, the Theorem 1
// cycle engine (cycleEngine) and the network co-simulation (netEngine).
// Both media accept every submission at once, so everything about the
// guest processors is the same in both: o and G pacing, the input
// buffers, the Script protocol and the (clock, id) commit order. An
// engine embeds guests and adds only its medium and its commit loop:
// it pops the runnable guest to commit from ready, hands a pending
// Send to its medium through submit, runs every other operation
// through exec, and feeds the medium's deliveries back through arrive
// and wakeAll.
//
// The runtime is arena-shaped. Guests live in one dense []guest slab
// (no per-guest allocation, stable &procs[i] pointers); each message
// occupies one msgRec slab record for its whole lifecycle, referenced
// by int32 index from the engine's medium and chained intrusively into
// its destination's input FIFO, so delivery allocates nothing. A
// retained engine resets the slabs in place (see reset).
type guests struct {
	lp logp.Params
	// script drives every guest (see scriptSegment); it is set for the
	// duration of one run.
	script logp.Script

	procs []guest
	// ready holds the runnable guests by (clock, id). A guest's clock
	// moves only in exec or submit (popped first) and completeRecv
	// (parked outside the queue), so a queued key never goes stale.
	ready runq.Queue

	// recs backs every submitted or buffered message's single record;
	// freed records recycle through the recFree intrusive free list.
	recs    []msgRec
	recFree int32

	wake []int32 // arrive/wakeAll scratch: guest ids to wake

	// sent counts the submissions; right after submit it is that
	// submission's ordinal, which the engines' media use to order
	// messages with equal instants.
	sent    int64
	halted  int   // guests that returned or panicked
	procErr error // the first guest panic
}

// guest is one guest processor's record.
type guest struct {
	id    int
	clock int64
	// nextComm is the earliest instant of the next communication
	// operation: submissions and acquisitions share one per-processor
	// gap stream, as in the logp engine.
	nextComm int64
	// Input buffer: an intrusive FIFO through guests.recs, in delivery
	// order. bufHead/bufTail are -1 when empty.
	bufHead int32
	bufTail int32
	bufLen  int32
	state   guestState
	// pending is the operation the guest is parked on, as Next returned
	// it: ScriptHalt once the guest halted or panicked (err then holds
	// the panic). res is the engine's answer to the previous operation,
	// which the next segment hands to Script.Next.
	pending logp.ScriptOp
	res     logp.ScriptResult
	err     error
}

type guestState uint8

const (
	guestReady guestState = iota
	guestWaitMsg
	guestDone
)

// msgRec is one message's slab record. Until delivery, at holds the
// submission instant and the record belongs to the engine's medium;
// once delivered, at holds the arrival instant and next chains the
// record into the destination's input FIFO. Freed records chain
// through next into the free list.
type msgRec struct {
	msg  logp.Message
	at   int64
	next int32
	// cycle is the Theorem 1 submission cycle, read by recoverPairs. It
	// is int32 to fit the record's padding; recoverPairs compares
	// truncated values, which stays exact while no in-flight message is
	// 2^32 cycles older than the committer's.
	cycle int32
}

// reset prepares the runtime for a fresh run of lp.P guests. The guest
// slab is reused when P is unchanged, and message records are zeroed in
// place so stale bodies do not pin guest memory.
//
//hot:cold per-Run setup owns all steady-state allocation
func (g *guests) reset(lp logp.Params) {
	g.lp = lp
	if len(g.procs) != lp.P {
		g.procs = make([]guest, lp.P)
	}
	g.ready.Reset()
	clear(g.recs)
	g.recs = g.recs[:0]
	g.recFree = -1
	g.wake = g.wake[:0]
	g.sent = 0
	g.halted = 0
	g.procErr = nil
}

// start runs every guest's first script segment, in id order.
//
//hot:cold per-Run startup
func (g *guests) start(sc logp.Script) {
	g.script = sc
	for i := range g.procs {
		p := &g.procs[i]
		*p = guest{id: i, bufHead: -1, bufTail: -1}
		g.await(p)
	}
}

// shutdown drops the run's script, so a retained engine does not pin
// it between runs.
//
//hot:cold per-Run epilogue
func (g *guests) shutdown() {
	g.script = nil
}

// blocked lists the guests waiting in Recv, for a deadlock diagnostic.
//
//hot:cold failure epilogue: the diagnostic rendering may allocate
func (g *guests) blocked() []int {
	var ids []int
	for i := range g.procs {
		if g.procs[i].state == guestWaitMsg {
			ids = append(ids, i)
		}
	}
	return ids
}

// scriptSegment advances a guest to its next engine operation. The
// engines have no guest-side fast path, so every operation is parked
// as Next returned it, except Compute(0), which has no effect. A panic
// out of Next — the script's own, a Program's through
// logp.ProgramAsScript, or one of the segment's validation panics —
// parks ScriptHalt with the guest's processor-panicked error in err.
// Next sees the last answer with the guest's clock in Now, as
// logp.ScriptAsProgram rebuilds it from the Proc calls, so a Script and
// its Program form run identically.
func (g *guests) scriptSegment(p *guest) {
	defer func() {
		if r := recover(); r != nil {
			p.pending = logp.ScriptOp{Kind: logp.ScriptHalt}
			p.err = fmt.Errorf("core: processor %d panicked: %v", p.id, r)
		}
	}()
	s := g.script
	res := p.res
	res.Now = p.clock
	for {
		op := s.Next(p.id, res)
		switch op.Kind {
		case logp.ScriptCompute:
			if op.N < 0 {
				panic(fmt.Sprintf("core: Compute(%d) with negative cycles", op.N))
			}
			if op.N == 0 {
				res = logp.ScriptResult{Now: p.clock}
				continue
			}
		case logp.ScriptSend:
			if op.Dst < 0 || op.Dst >= g.lp.P {
				panic(fmt.Sprintf("core: Send to invalid destination %d (P=%d)", op.Dst, g.lp.P))
			}
			if op.Dst == p.id {
				panic("core: Send to self; use local state instead")
			}
		case logp.ScriptHalt, logp.ScriptWait, logp.ScriptRecv, logp.ScriptTryRecv, logp.ScriptBuffered:
			// Valid as Next returned it.
		default:
			panic(fmt.Sprintf("core: unknown script op kind %d", op.Kind))
		}
		p.pending = op
		return
	}
}

// await runs p's script segment to obtain its next operation and, if
// the guest stays runnable, parks it in the ready queue. Every caller
// has p out of the queue (startup, or just popped by the committer),
// so the push cannot duplicate.
func (g *guests) await(p *guest) {
	g.scriptSegment(p)
	if p.pending.Kind != logp.ScriptHalt {
		p.state = guestReady
		g.ready.Push(runq.Ref{At: p.clock, Tie: int64(p.id), Idx: int32(p.id)})
		return
	}
	p.state = guestDone
	g.halted++
	if p.err != nil && g.procErr == nil {
		g.procErr = p.err
	}
}

func (g *guests) resume(p *guest, r logp.ScriptResult) {
	p.res = r
	g.await(p)
}

// exec commits p's pending operation, which is anything but a Send
// (see submit).
func (g *guests) exec(p *guest) {
	// Read in place: every case consumes op before resume overwrites it.
	op := &p.pending
	switch op.Kind {
	case logp.ScriptCompute:
		p.clock += op.N
		g.resume(p, logp.ScriptResult{})
	case logp.ScriptWait:
		if op.N > p.clock {
			p.clock = op.N
		}
		g.resume(p, logp.ScriptResult{})
	case logp.ScriptBuffered:
		n := int64(0)
		for idx := p.bufHead; idx >= 0; idx = g.recs[idx].next {
			if g.recs[idx].at > p.clock {
				break
			}
			n++
		}
		g.resume(p, logp.ScriptResult{N: n})
	case logp.ScriptRecv:
		if p.bufLen > 0 {
			g.completeRecv(p)
		} else {
			p.state = guestWaitMsg
		}
	case logp.ScriptTryRecv:
		if p.bufLen > 0 && g.recs[p.bufHead].at <= p.clock && p.nextComm <= p.clock {
			r := p.clock
			msg := g.popBufFree(p)
			p.clock = r + g.lp.O
			p.nextComm = r + g.lp.G
			g.resume(p, logp.ScriptResult{Msg: msg, OK: true})
		} else {
			p.clock++
			g.resume(p, logp.ScriptResult{})
		}
	default:
		panic(fmt.Sprintf("core: unexpected guest op %d", op.Kind))
	}
}

// submit applies the Send pacing rule to p's pending Send: the
// submission instant is o past p's clock, but no earlier than its next
// communication slot, and becomes p's clock. The message's slab record
// is filled in place from the op, with the instant in at. submit
// returns the instant and the record; the engine hands the record to
// its medium and then resumes p.
func (g *guests) submit(p *guest) (int64, int32) {
	s := p.clock + g.lp.O
	if s < p.nextComm {
		s = p.nextComm
	}
	p.nextComm = s + g.lp.G
	p.clock = s
	g.sent++
	idx := g.recFree
	if idx >= 0 {
		g.recFree = g.recs[idx].next
	} else {
		idx = int32(len(g.recs))
		g.recs = append(g.recs, msgRec{})
	}
	r := &g.recs[idx]
	op := &p.pending
	r.msg = logp.Message{Src: p.id, Dst: op.Dst, Tag: op.Tag, Payload: op.Payload, Aux: op.Aux, Body: op.Body}
	r.at = s
	r.next = -1
	return s, idx
}

// arrive delivers record idx into its destination's input FIFO at
// instant at, and appends the destination to wake if it is blocked in
// Recv. An engine collects one instant's wakes in a local list, starting
// from wake[:0], and then hands it to wakeAll.
func (g *guests) arrive(idx int32, at int64, wake []int32) []int32 {
	r := &g.recs[idx]
	p := &g.procs[r.msg.Dst]
	r.at = at
	r.next = -1
	if p.bufTail >= 0 {
		g.recs[p.bufTail].next = idx
	} else {
		p.bufHead = idx
	}
	p.bufTail = idx
	p.bufLen++
	if p.state == guestWaitMsg {
		wake = append(wake, int32(p.id))
	}
	return wake
}

// wakeAll completes the Recv of every guest in wake, in id order. One
// instant's wake list can be O(p) — the cycle engine delivers a whole
// cycle at its boundary, so a ring at p = 10^6 lands every message on
// the same instant — and anything quadratic here (an insertion sort was
// 97% of the E14.p1m profile) dominates the run. slices.Sort is
// in-place and allocation-free; duplicate ids (several messages for one
// waiting guest) stay adjacent, and the guest completes only once.
func (g *guests) wakeAll(wake []int32) {
	slices.Sort(wake)
	g.wake = wake
	for _, id := range wake {
		p := &g.procs[id]
		if p.state == guestWaitMsg && p.bufLen > 0 {
			g.completeRecv(p)
		}
	}
}

func (g *guests) completeRecv(p *guest) {
	r := p.clock
	if at := g.recs[p.bufHead].at; at > r {
		r = at
	}
	if p.nextComm > r {
		r = p.nextComm
	}
	msg := g.popBufFree(p)
	p.clock = r + g.lp.O
	p.nextComm = r + g.lp.G
	p.state = guestReady
	g.resume(p, logp.ScriptResult{Msg: msg, OK: true})
}

// popBufFree unlinks p's buffer head, frees its record, and returns
// the message.
func (g *guests) popBufFree(p *guest) logp.Message {
	idx := p.bufHead
	r := &g.recs[idx]
	msg := r.msg
	p.bufHead = r.next
	if p.bufHead < 0 {
		p.bufTail = -1
	}
	p.bufLen--
	r.msg = logp.Message{}
	r.next = g.recFree
	g.recFree = idx
	return msg
}
