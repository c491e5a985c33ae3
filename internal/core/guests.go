package core

import (
	"fmt"
	"math/bits"

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

	// wakeBits marks the guests that arrive found blocked in Recv, one
	// bit per guest id, for wakeAll; words [wakeLo, wakeHi) may be set,
	// and every word is zero between instants.
	wakeBits       []uint64
	wakeLo, wakeHi int

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
	// the panic).
	pending logp.ScriptOp
	err     error
}

// noMsg is the Message of every answer that carries none.
var noMsg logp.Message

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
	if words := (lp.P + 63) / 64; len(g.wakeBits) != words {
		g.wakeBits = make([]uint64, words)
	} else {
		clear(g.wakeBits)
	}
	g.wakeLo, g.wakeHi = len(g.wakeBits), 0
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
		g.await(p, &noMsg, false, 0)
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

// scriptSegment advances a guest to its next engine operation, given
// the answer to the previous one: the acquired message (&noMsg when
// there is none), the TryRecv outcome in ok and the Buffered count in
// n. The engines have no guest-side fast path, so every operation is
// parked as Next returned it, except Compute(0), which has no effect. A
// panic out of Next — the script's own, a Program's through
// logp.ProgramAsScript, or one of the segment's validation panics —
// parks ScriptHalt with the guest's processor-panicked error in err.
// Next sees the answer with the guest's clock in Now, as
// logp.ScriptAsProgram rebuilds it from the Proc calls, so a Script and
// its Program form run identically. The answer is built only as Next's
// argument and the operation is switched on in place: ScriptResult and
// ScriptOp are too wide for registers, so every local copy of either
// is a block copy.
func (g *guests) scriptSegment(p *guest, msg *logp.Message, ok bool, n int64) {
	defer func() {
		if r := recover(); r != nil {
			p.pending = logp.ScriptOp{Kind: logp.ScriptHalt}
			p.err = fmt.Errorf("core: processor %d panicked: %v", p.id, r)
		}
	}()
	s := g.script
	for {
		p.pending = s.Next(p.id, logp.ScriptResult{Msg: *msg, OK: ok, N: n, Now: p.clock})
		switch op := &p.pending; op.Kind {
		case logp.ScriptCompute:
			if op.N < 0 {
				panic(fmt.Sprintf("core: Compute(%d) with negative cycles", op.N))
			}
			if op.N == 0 {
				msg, ok, n = &noMsg, false, 0
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
		return
	}
}

// await hands p's script segment the answer to p's last operation (see
// scriptSegment) to obtain its next operation and, if the guest stays
// runnable, parks it in the ready queue. Every caller has p out of the
// queue (startup, or just popped by the committer), so the push cannot
// duplicate.
func (g *guests) await(p *guest, msg *logp.Message, ok bool, n int64) {
	g.scriptSegment(p, msg, ok, n)
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

// exec commits p's pending operation, which is anything but a Send
// (see submit).
func (g *guests) exec(p *guest) {
	// Read in place: every case consumes op before await overwrites it.
	op := &p.pending
	switch op.Kind {
	case logp.ScriptCompute:
		p.clock += op.N
		g.await(p, &noMsg, false, 0)
	case logp.ScriptWait:
		if op.N > p.clock {
			p.clock = op.N
		}
		g.await(p, &noMsg, false, 0)
	case logp.ScriptBuffered:
		n := int64(0)
		for idx := p.bufHead; idx >= 0; idx = g.recs[idx].next {
			if g.recs[idx].at > p.clock {
				break
			}
			n++
		}
		g.await(p, &noMsg, false, n)
	case logp.ScriptRecv:
		if p.bufLen > 0 {
			g.completeRecv(p)
		} else {
			p.state = guestWaitMsg
		}
	case logp.ScriptTryRecv:
		if p.bufLen > 0 && g.recs[p.bufHead].at <= p.clock && p.nextComm <= p.clock {
			r := p.clock
			idx := g.popBuf(p)
			p.clock = r + g.lp.O
			p.nextComm = r + g.lp.G
			g.await(p, &g.recs[idx].msg, true, 0)
			g.freeRec(idx)
		} else {
			p.clock++
			g.await(p, &noMsg, false, 0)
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
// its medium and then resumes p through await.
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
// instant at, and marks the destination in wakeBits if it is blocked in
// Recv. An engine arrives one instant's deliveries and then calls
// wakeAll.
func (g *guests) arrive(idx int32, at int64) {
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
		w := p.id >> 6
		g.wakeBits[w] |= 1 << (uint(p.id) & 63)
		g.wakeLo = min(g.wakeLo, w)
		g.wakeHi = max(g.wakeHi, w+1)
	}
}

// wakeAll completes the Recv of every guest arrive marked, in id order,
// and clears the marks. One instant's wakes can be O(p) — the cycle
// engine delivers a whole cycle at its boundary, so a ring at p = 10^6
// lands every message on the same instant — so the marks are one bit
// per guest, walked word by word over the range in use: no sort, and a
// guest with several messages is marked, and completes, once. A
// completion runs a script segment, which never arrives anything, so
// the walk sees no new marks.
func (g *guests) wakeAll() {
	for w := g.wakeLo; w < g.wakeHi; w++ {
		word := g.wakeBits[w]
		g.wakeBits[w] = 0
		for ; word != 0; word &= word - 1 {
			p := &g.procs[w<<6|bits.TrailingZeros64(word)]
			if p.state == guestWaitMsg && p.bufLen > 0 {
				g.completeRecv(p)
			}
		}
	}
	g.wakeLo, g.wakeHi = len(g.wakeBits), 0
}

// completeRecv acquires p's buffer head and resumes p with it. The
// script segment reads the message in place, out of its record, which
// is freed only afterwards: a segment never submits, so recs cannot
// grow under the pointer.
func (g *guests) completeRecv(p *guest) {
	r := p.clock
	if at := g.recs[p.bufHead].at; at > r {
		r = at
	}
	if p.nextComm > r {
		r = p.nextComm
	}
	idx := g.popBuf(p)
	p.clock = r + g.lp.O
	p.nextComm = r + g.lp.G
	p.state = guestReady
	g.await(p, &g.recs[idx].msg, true, 0)
	g.freeRec(idx)
}

// popBuf unlinks p's buffer head and returns its record, which the
// caller frees (freeRec) once it is done reading the message.
func (g *guests) popBuf(p *guest) int32 {
	idx := p.bufHead
	p.bufHead = g.recs[idx].next
	if p.bufHead < 0 {
		p.bufTail = -1
	}
	p.bufLen--
	return idx
}

// freeRec returns record idx to the free list, dropping its message so
// a stale body does not pin guest memory.
func (g *guests) freeRec(idx int32) {
	r := &g.recs[idx]
	r.msg = logp.Message{}
	r.next = g.recFree
	g.recFree = idx
}
