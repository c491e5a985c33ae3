package logp

import "fmt"

// Proc is the interface a LogP program uses to drive its processor.
// Programs are ordinary Go functions of type Program; each runs as a
// coroutine of the engine's single sequential loop, which interleaves
// them deterministically, so closures may share data structures indexed
// by processor id without additional locking.
//
// On a Machine, a program's local code may run up to one batch ahead
// of the engine: Send and SendFrom return before the engine has
// committed them, and Compute and WaitUntil behind such a Send return
// before they are applied. The engine still commits every operation
// alone, at the (clock, id) turn it would have had without the batch,
// so every simulated quantity is unchanged; only host time moves.
// Before a program's code touches state other than its own processor's
// (the bsplogpvet procshare rule), it must call something that returns
// a value: Now, Recv, a RecvInto or TryRecvInto of at least one
// message, TryRecv or Buffered. Each of those waits until the engine
// has performed everything the program issued before it.
//
// Proc is an interface rather than a concrete type so that unmodified
// LogP programs run on other substrates too: ProgramAsScript implements
// it to drive a Program as a Script, which is how internal/core's
// Theorem 1 cycle engine and network co-simulation execute Programs,
// and the reference interpreter implements it as well.
type Proc interface {
	// ID returns this processor's identifier in [0, P()).
	ID() int
	// P returns the number of processors.
	P() int
	// Params returns the machine parameters.
	Params() Params
	// Now returns the processor's local clock.
	Now() int64
	// Compute advances the local clock by n >= 0 units of local work.
	Compute(n int64)
	// WaitUntil idles the processor until its local clock is at
	// least t. Scheduled (oblivious) algorithms such as the paper's
	// binary Combine-and-Broadcast for ceil(L/G) = 1 use it to pin
	// transmissions to prescribed instants.
	WaitUntil(t int64)
	// Send prepares (cost o) and submits a message. The call returns
	// when the medium accepts the message; if the destination is at
	// capacity the processor stalls until acceptance, per the
	// Stalling Rule. Consecutive submission instants are >= G apart.
	Send(dst int, tag int32, payload, aux int64)
	// SendBody is Send with an opaque application payload attached;
	// the cost model is identical (every message is O(1) words).
	SendBody(dst int, tag int32, payload, aux int64, body interface{})
	// SendFrom makes len(src) consecutive SendBody calls, taking Dst,
	// Tag, Payload, Aux and Body from each element in turn (Src is
	// ignored). An invalid destination at index k panics as that loop
	// would, once elements 0..k-1 have been sent. The engine may read
	// src until the next call that returns a value, so src must stay
	// unmodified until then. A Machine adds the whole run to the
	// program's batch as one entry.
	SendFrom(src []Message)
	// Recv blocks until an incoming message can be acquired, then
	// acquires it (cost o). Consecutive acquisition instants are
	// >= G apart.
	Recv() Message
	// RecvInto performs len(dst) consecutive Recvs, storing the k-th
	// acquired message in dst[k]. It is exactly that loop of Recv; a
	// Machine answers the whole run with one crossing into its engine.
	RecvInto(dst []Message)
	// TryRecv acquires a buffered message if one has arrived by the
	// local clock and the acquisition gap permits; otherwise it
	// charges one polling cycle and reports false.
	TryRecv() (Message, bool)
	// TryRecvInto polls while dst has room, a message is buffered and
	// the clock has not passed until, storing each acquisition in turn,
	// and returns how many it stored. It is exactly
	//
	//	n := 0
	//	for n < len(dst) && Buffered() > 0 && Now() <= until {
	//		if m, ok := TryRecv(); ok {
	//			dst[n] = m
	//			n++
	//		}
	//	}
	//	return n
	//
	// A Machine answers the whole loop with one crossing into its engine.
	TryRecvInto(dst []Message, until int64) int
	// Buffered reports how many delivered messages are waiting in
	// the input buffer at the local clock.
	Buffered() int
}

// Program is the code executed by every processor of a Machine.
type Program func(p Proc)

// token is the zero-size value exchanged over the coroutine switch; the
// operations ride in the program's batch (Machine.deferred) and the
// answer in the Machine's answer slot (Machine.ansMsg, ansOK, ansN).
type token = struct{}

// deferCap is the capacity of a Program's batch: the operations it may
// issue before crossing into the engine. Only Send, a SendFrom's run,
// and Compute and WaitUntil behind either need no answer, so they are
// what fills it; a call that needs one ends the batch. Each slot costs
// every processor of a Run machine 64 bytes; 8 is the largest size
// whose table keeps the Theorem 2 routers' retained memory within 3%
// (EXPERIMENTS.md § Benchmarking has the measurements).
const deferCap = 8

// scriptSendRun is a SendFrom's entry in a Program's batch: resume
// parks the run's Sends, which wait in Machine.openRuns, one at a time
// in the entry's place. It never leaves the batch, so no Script or
// engine switch meets it.
const scriptSendRun = ScriptBuffered + 1

// procRun is one processor's open runs, kept in Machine.openRuns while
// the engine performs them one operation at a time (see
// Machine.resume). send is a SendFrom's messages and sent how many of
// them resume has parked: 0 while the run waits in the batch, so the
// program side knows a run is open by send alone. recv is a RecvInto's
// or TryRecvInto's destination and n how many acquisitions it holds;
// until is TryRecvInto's last polling clock.
type procRun struct {
	send  []Message
	sent  int
	recv  []Message
	n     int
	until int64
}

type procState uint8

const (
	stateReady procState = iota
	stateWaitAccept
	stateWaitMsg
	stateDone
)

// msgRec is one message's slab record (Machine.recSlab), reused across
// the message's whole lifecycle without copying: while pending, at
// holds the submission instant (the Stalling Rule's FIFO key and stall
// baseline); in flight, the record is referenced by its delivery
// event; once delivered, at holds the arrival instant and next chains
// the record into the destination's input FIFO. Freed records chain
// through next into the machine's free list.
type msgRec struct {
	msg   Message
	at    int64
	msgID int64
	next  int32
}

// noMsg is the Message of every answer that carries none.
var noMsg Message

// proc is the engine-side representation of a processor; it also
// implements Proc for the program coroutine. Both program forms park
// their next engine operation in pending as a ScriptOp, the format every
// LogP engine parks (a Program's come out of its batch, see
// Machine.resume). The engine's answer is not kept here: a Script gets
// it as its Next argument and a Program reads it from the Machine's
// answer slot (see Machine.await).
type proc struct {
	id int
	m  *Machine

	clock int64 // local time
	// nextComm is the earliest instant at which this processor may
	// perform its next communication operation. Submissions and
	// acquisitions share the single per-processor gap stream of the
	// paper's Section 2 definition: at least G cycles must separate
	// *any* two consecutive communication operations by the same
	// processor, not merely two submissions or two acquisitions.
	nextComm int64

	// localOps counts the Compute and WaitUntil calls resolved
	// without exec since the processor last parked: proc-side while a
	// Program's batch is empty, from the batch in resume, in
	// scriptSegment for a Script. await folds the count into the
	// machine's simEvents.
	localOps int64

	// Input buffer: an intrusive FIFO through Machine.recSlab, in
	// delivery order. bufHead/bufTail are -1 when empty.
	bufHead int32
	bufTail int32
	bufLen  int

	state procState
	// dhead and dlen delimit a Program's batch, the slots
	// m.deferred[id*deferCap:][:dlen]: the program appends at dlen,
	// resume pops at dhead, and both return to 0 once the batch is
	// spent. They sit in the padding after state.
	dhead, dlen uint8
	// pending is the operation the processor is parked on, in the
	// Script form every engine parks: Send, Recv, TryRecv or Buffered
	// while it waits for exec, ScriptHalt once it returned or panicked
	// (err then holds the panic).
	pending ScriptOp
	err     error

	stallCycles int64

	// The program runs as a coroutine (nil for a scripted processor,
	// which runs inline in scriptSegment). yield parks the program
	// until the engine has spent its batch and answered in the
	// Machine's slot; next resumes the program until it crosses again;
	// stop unwinds it. The operations are written into the batch rather
	// than yielded, so no struct is copied through the iter.Pull
	// plumbing. Exactly one of (engine, program) runs at any time and
	// the coroutine switch orders their memory accesses, so these
	// unsynchronized fields are race-free.
	next  func() (token, bool)
	stop  func()
	yield func(token) bool
}

var _ Proc = (*proc)(nil)

func (p *proc) ID() int        { return p.id }
func (p *proc) P() int         { return p.m.params.P }
func (p *proc) Params() Params { return p.m.params }

// Now returns the local clock once the engine has performed the batch:
// the batch's Sends decide it.
//
//hot:path program-side operation
func (p *proc) Now() int64 {
	if p.dlen != 0 {
		p.cross()
	}
	return p.clock
}

// push appends op to the batch, for the engine to perform in order.
func (p *proc) push(op ScriptOp) {
	p.m.deferred[p.id*deferCap+int(p.dlen)] = op
	p.dlen++
}

// post pushes op, which needs no answer. A full batch crosses at once,
// so a running program always has a free slot, which the coroutine
// epilogue's ScriptHalt relies on.
func (p *proc) post(op ScriptOp) {
	p.push(op)
	if p.dlen == deferCap {
		p.cross()
	}
}

// call pushes op, which needs an answer, and crosses.
func (p *proc) call(op ScriptOp) {
	p.push(op)
	p.cross()
}

// cross hands the batch to the engine and blocks until the engine has
// performed all of it, the answer to its last operation then in the
// Machine's slot: one coroutine switch. A false yield means the engine
// is shutting down, and the program unwinds.
func (p *proc) cross() {
	if !p.yield(token{}) {
		panic(errStopped)
	}
}

// Compute advances the local clock by n. With the batch empty it needs
// no engine crossing: local work touches only this processor's clock,
// so it commutes with every other processor's operations. Behind a
// batched Send it joins the batch, since the clock it advances from is
// the Send's acceptance instant.
//
//hot:path program-side operation
func (p *proc) Compute(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("logp: Compute(%d) with negative cycles", n))
	}
	if n == 0 {
		return
	}
	if p.dlen != 0 {
		p.post(ScriptOp{Kind: ScriptCompute, N: n})
		return
	}
	p.clock += n
	p.localOps++
}

// WaitUntil advances the local clock to t, resolved like Compute.
//
//hot:path program-side operation
func (p *proc) WaitUntil(t int64) {
	if p.dlen != 0 {
		p.post(ScriptOp{Kind: ScriptWait, N: t})
		return
	}
	if t > p.clock {
		p.clock = t
	}
	p.localOps++
}

// Send submits a message for delivery to dst.
//
//hot:path program-side operation
func (p *proc) Send(dst int, tag int32, payload, aux int64) {
	p.SendBody(dst, tag, payload, aux, nil)
}

// SendBody is Send carrying an opaque body reference. Its only answer
// is the clock after acceptance, which no later call reads before the
// engine has performed the Send, so it joins the batch.
//
//hot:path program-side operation
func (p *proc) SendBody(dst int, tag int32, payload, aux int64, body interface{}) {
	if dst < 0 || dst >= p.m.params.P {
		panic(fmt.Sprintf("logp: Send to invalid destination %d (P=%d)", dst, p.m.params.P))
	}
	if dst == p.id {
		panic("logp: Send to self; use local state instead")
	}
	p.post(ScriptOp{Kind: ScriptSend, Dst: dst, Tag: tag, Payload: payload, Aux: aux, Body: body})
}

// SendFrom submits the messages of src in order. The batch gains one
// entry for the whole run, whose messages wait in the Machine's
// openRuns table: Machine.resume parks them one Send at a time, each
// performed alone at its own (clock, id) turn, as the loop of SendBody
// would have issued them, since the loop issues nothing between them.
// Only the entry joins the batch, so the run costs no crossing of its
// own, and a program may issue more behind it. The table holds one run
// per processor: a second SendFrom before the first is performed
// crosses first. An invalid destination ends the run before it, and
// that element's SendBody then panics as the loop's would.
//
//hot:path program-side operation
func (p *proc) SendFrom(src []Message) {
	n := 0
	for n < len(src) && src[n].Dst >= 0 && src[n].Dst < p.m.params.P && src[n].Dst != p.id {
		n++
	}
	if n > 0 {
		run := &p.m.openRuns[p.id]
		if run.send != nil {
			p.cross()
		}
		run.send = src[:n]
		p.post(ScriptOp{Kind: scriptSendRun})
	}
	if n < len(src) {
		m := &src[n]
		p.SendBody(m.Dst, m.Tag, m.Payload, m.Aux, m.Body)
	}
}

// Recv blocks until a buffered message can be acquired.
//
//hot:path program-side operation
func (p *proc) Recv() Message {
	p.call(ScriptOp{Kind: ScriptRecv})
	return *p.m.ansMsg
}

// RecvInto acquires len(dst) messages into dst. The batch gains one
// Recv and crosses once: Machine.resume stores each acquisition in dst,
// which waits in the Machine's openRuns table meanwhile, and parks the
// Recv again until dst is full. Each Recv is still performed alone at
// its own (clock, id) turn, as the loop of Recv would have issued it,
// since the loop issues nothing between them.
//
//hot:path program-side operation
func (p *proc) RecvInto(dst []Message) {
	if len(dst) == 0 {
		return
	}
	p.m.openRuns[p.id].recv = dst
	p.call(ScriptOp{Kind: ScriptRecv})
}

// TryRecvInto is its polling loop in one crossing: the batch gains the
// loop's first Buffered, and Machine.resume, answering each Buffered
// and TryRecv of the loop in turn, parks the loop's next operation
// itself until the loop would stop, storing each acquisition in dst.
// The count comes back in the answer slot.
//
//hot:path program-side operation
func (p *proc) TryRecvInto(dst []Message, until int64) int {
	if len(dst) == 0 {
		return 0
	}
	run := &p.m.openRuns[p.id]
	run.recv, run.until = dst, until
	p.call(ScriptOp{Kind: ScriptBuffered})
	return int(p.m.ansN)
}

// TryRecv polls the input buffer for one cycle.
//
//hot:path program-side operation
func (p *proc) TryRecv() (Message, bool) {
	p.call(ScriptOp{Kind: ScriptTryRecv})
	return *p.m.ansMsg, p.m.ansOK
}

// Buffered reports how many arrivals are acquirable right now.
//
//hot:path program-side operation
func (p *proc) Buffered() int {
	p.call(ScriptOp{Kind: ScriptBuffered})
	return int(p.m.ansN)
}

// reinit prepares the pooled proc struct for a fresh Run.
func (p *proc) reinit() {
	p.clock = 0
	p.nextComm = 0
	p.localOps = 0
	p.bufHead, p.bufTail, p.bufLen = -1, -1, 0
	p.state = stateReady
	p.dhead, p.dlen = 0, 0
	p.pending = ScriptOp{}
	p.err = nil
	p.stallCycles = 0
	p.next, p.stop, p.yield = nil, nil, nil
}
