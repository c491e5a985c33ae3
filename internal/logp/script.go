package logp

import (
	"fmt"
	"iter"
)

// Script is the coroutine-free program form for million-processor
// runs. A Program costs a parked coroutine per live processor —
// roughly 2.7 GB of stacks and pull-state at p = 10⁶ — so the scale
// mode instead drives processors as explicit state machines: the
// engine asks Next for processor id's next operation, passing the
// result of the previous one, and the script keeps whatever per-
// processor state it needs in its own (typically slab-allocated)
// structures. Per live processor the engine then holds only the
// 176-byte proc record.
//
// Next must be deterministic and, like a Program, may only touch state
// owned by processor id (the bsplogpvet procshare rule). The engine
// resolves Compute and WaitUntil without crossing into its commit loop
// and performs every other operation there, polls included, each as
// Next returns it: a Script has no batch to run ahead in, as a Program
// has (see Proc), since Next is called once per operation anyway.
//
// Active declares which processors have work of their own at time 0.
// A processor with Active(id) == false is passive: it is represented
// by a zero-byte template and instantiated only when a message first
// arrives for it (or at termination, to observe its halt or Recv
// deadlock). The passivity contract: a passive processor's operations
// before its first Recv must be local and non-panicking — Compute or
// WaitUntil only, no Send, TryRecv, or Buffered. Local prefixes
// commute with every other processor's operations, so running the
// prefix at first delivery instead of at startup is unobservable and
// the sparse engine stays byte-identical to the dense one; the engine
// reports a run error if the contract is broken.
type Script interface {
	// Active reports whether processor id has work before its first
	// message arrives.
	Active(id int) bool
	// Next returns processor id's next operation. prev carries the
	// completed previous operation's result: the acquired message and
	// true for Recv, (message, success) for TryRecv, the buffered
	// count in N for Buffered, and always the local clock in Now. The
	// first call for a processor sees the zero result with Now = 0.
	Next(id int, prev ScriptResult) ScriptOp
}

// ScriptKind identifies a scripted operation.
type ScriptKind uint8

const (
	// ScriptHalt terminates the processor (a Program returning).
	ScriptHalt ScriptKind = iota
	// ScriptCompute advances the local clock by N >= 0 work units.
	ScriptCompute
	// ScriptWait idles until the local clock is at least N.
	ScriptWait
	// ScriptSend submits a message to Dst with Tag/Payload/Aux and
	// the opaque Body.
	ScriptSend
	// ScriptRecv blocks until a message is acquired.
	ScriptRecv
	// ScriptTryRecv polls for a message.
	ScriptTryRecv
	// ScriptBuffered asks for the buffered-message count.
	ScriptBuffered
)

// ScriptOp is one operation of a Script, mirroring the Proc methods.
type ScriptOp struct {
	Kind         ScriptKind
	N            int64 // Compute work units or WaitUntil instant
	Dst          int
	Tag          int32
	Payload, Aux int64
	Body         interface{}
}

// ScriptResult reports a completed scripted operation back to Next.
type ScriptResult struct {
	Msg Message
	OK  bool
	N   int64
	Now int64
}

// ScriptAsProgram adapts a Script to the coroutine Program form. The
// adapter issues exactly the Proc calls the engine-side scripted
// executor performs and rebuilds results the same way, so any
// Program-form runner executes the Script as RunScript(s) would: the
// dense Run(ScriptAsProgram(s)) and the reference interpreter's run of
// it must match RunScript's traces, audit metrics, and Results byte
// for byte.
//
//hot:cold adapter constructor: builds one Program closure per Run for the dense path; its operations are the Proc methods, rooted separately
func ScriptAsProgram(s Script) Program {
	return func(p Proc) {
		id := p.ID()
		res := ScriptResult{Now: p.Now()}
		for {
			op := s.Next(id, res)
			switch op.Kind {
			case ScriptHalt:
				return
			case ScriptCompute:
				p.Compute(op.N)
				res = ScriptResult{Now: p.Now()}
			case ScriptWait:
				p.WaitUntil(op.N)
				res = ScriptResult{Now: p.Now()}
			case ScriptSend:
				p.SendBody(op.Dst, op.Tag, op.Payload, op.Aux, op.Body)
				res = ScriptResult{Now: p.Now()}
			case ScriptRecv:
				m := p.Recv()
				res = ScriptResult{Msg: m, OK: true, Now: p.Now()}
			case ScriptTryRecv:
				m, ok := p.TryRecv()
				res = ScriptResult{Msg: m, OK: ok, Now: p.Now()}
			case ScriptBuffered:
				n := p.Buffered()
				res = ScriptResult{N: int64(n), Now: p.Now()}
			default:
				panic(fmt.Sprintf("logp: unknown script op kind %d", op.Kind))
			}
		}
	}
}

// ProgramAsScript adapts a Program to the Script form, the inverse of
// ScriptAsProgram, so an engine that executes only Scripts (core's
// Theorem 1 cycle engine and network co-simulation) runs any Program.
// Next resumes processor id's program as an iter.Pull coroutine until
// its next Proc call and returns that call as a ScriptOp:
//
//   - every call except Compute(0), which has no effect, and the
//     runs SendFrom, RecvInto and TryRecvInto, which are loops of
//     SendBody, of Recv, and of Buffered and TryRecv, is one Next,
//     passed through unvalidated (an invalid Send or a negative
//     Compute is the engine's to reject, in its own words);
//   - the program returning is ScriptHalt;
//   - a program panic propagates out of Next, where the engine
//     reports it as the processor's panic.
//
// Every processor is active. The caller must call Stop when the run
// ends, however it ends: it unwinds the programs still parked in a
// call (a deadlock leaves them parked in Recv), running their deferred
// functions.
func ProgramAsScript(params Params, prog Program) *ProgramScript {
	return &ProgramScript{params: params, prog: prog, procs: make([]bridgeProc, max(params.P, 0))}
}

// ProgramScript is a Program driven as a Script; see ProgramAsScript.
type ProgramScript struct {
	params Params
	prog   Program
	procs  []bridgeProc
}

// bridgeProc is one processor of a ProgramScript: the Proc its program
// runs against. The program parks in call with the operation in op;
// Next resumes it with the engine's answer in res. Exactly one of
// (engine, program) runs at any time, so the fields are race-free.
type bridgeProc struct {
	s        *ProgramScript
	id       int
	next     func() (token, bool)
	stop     func()
	yield    func(token) bool
	op       ScriptOp
	res      ScriptResult
	stopping bool
}

// Active reports every processor active: a Program starts at time 0.
func (s *ProgramScript) Active(int) bool { return true }

// Next resumes processor id's program with prev, the result of its
// pending call, and returns the program's next call.
func (s *ProgramScript) Next(id int, prev ScriptResult) ScriptOp {
	b := &s.procs[id]
	if b.next == nil {
		b.s, b.id = s, id
		b.next, b.stop = iter.Pull(b.body)
	}
	b.res = prev
	if _, ok := b.next(); !ok {
		return ScriptOp{Kind: ScriptHalt}
	}
	return b.op
}

// Stop unwinds every program still parked in a call. It returns once
// their deferred functions have run.
func (s *ProgramScript) Stop() {
	for i := range s.procs {
		if b := &s.procs[i]; b.stop != nil {
			b.stopping = true
			b.stop()
		}
	}
}

// body is processor b's coroutine. A program unwound by Stop ends here;
// any other panic propagates to the engine through Next.
func (b *bridgeProc) body(yield func(token) bool) {
	b.yield = yield
	defer func() {
		if b.stopping {
			recover() // nothing reads a stopped program's outcome
		}
	}()
	b.s.prog(b)
}

// call hands op to the engine and parks until Next resumes the program.
func (b *bridgeProc) call(op ScriptOp) {
	b.op = op
	if !b.yield(token{}) {
		panic(errStopped)
	}
}

func (b *bridgeProc) ID() int        { return b.id }
func (b *bridgeProc) P() int         { return b.s.params.P }
func (b *bridgeProc) Params() Params { return b.s.params }
func (b *bridgeProc) Now() int64     { return b.res.Now }

func (b *bridgeProc) Compute(n int64) {
	if n != 0 {
		b.call(ScriptOp{Kind: ScriptCompute, N: n})
	}
}

func (b *bridgeProc) WaitUntil(t int64) { b.call(ScriptOp{Kind: ScriptWait, N: t}) }

func (b *bridgeProc) Send(dst int, tag int32, payload, aux int64) {
	b.SendBody(dst, tag, payload, aux, nil)
}

func (b *bridgeProc) SendBody(dst int, tag int32, payload, aux int64, body interface{}) {
	b.call(ScriptOp{Kind: ScriptSend, Dst: dst, Tag: tag, Payload: payload, Aux: aux, Body: body})
}

// SendFrom is a plain loop of SendBody: each Send is one Next.
func (b *bridgeProc) SendFrom(src []Message) {
	for i := range src {
		m := &src[i]
		b.SendBody(m.Dst, m.Tag, m.Payload, m.Aux, m.Body)
	}
}

func (b *bridgeProc) Recv() Message {
	b.call(ScriptOp{Kind: ScriptRecv})
	return b.res.Msg
}

// RecvInto is a plain loop of Recv: each acquisition is one Next.
func (b *bridgeProc) RecvInto(dst []Message) {
	for i := range dst {
		dst[i] = b.Recv()
	}
}

func (b *bridgeProc) TryRecv() (Message, bool) {
	b.call(ScriptOp{Kind: ScriptTryRecv})
	return b.res.Msg, b.res.OK
}

// TryRecvInto is its defining loop of Buffered, Now and TryRecv: each
// Buffered and TryRecv is one Next.
func (b *bridgeProc) TryRecvInto(dst []Message, until int64) int {
	n := 0
	for n < len(dst) && b.Buffered() > 0 && b.Now() <= until {
		if m, ok := b.TryRecv(); ok {
			dst[n] = m
			n++
		}
	}
	return n
}

func (b *bridgeProc) Buffered() int {
	b.call(ScriptOp{Kind: ScriptBuffered})
	return int(b.res.N)
}

// RunScript executes s with the scripted engine: no coroutines, lazy
// instantiation of passive processors, and recycling of halted ones,
// so cost is O(active processors) in memory while every observable —
// Result, trace, audit metrics — is byte-identical to
// Run(ScriptAsProgram(s)).
func (m *Machine) RunScript(s Script) (Result, error) {
	return m.run(nil, s)
}

// scriptSegment advances a scripted processor to its next engine
// operation, given the answer to the previous one: the acquired message
// (&noMsg when there is none), the TryRecv outcome in ok and the
// Buffered count in n. Compute and WaitUntil touch only the processor's
// clock, so they resolve here, as proc.Compute and proc.WaitUntil do
// for a Program, and Next is asked again with the clock alone; every
// other operation, polls included, is parked in p.pending as Next
// returned it, for exec to perform. A panic out of Next, or a
// validation failure, parks ScriptHalt with the processor's panicked
// error in p.err, as the coroutine epilogue does. The answer is built
// only as Next's argument and the operation is switched on in place:
// ScriptResult and ScriptOp are too wide for registers, so every local
// copy of either is a block copy.
//
//hot:path the scripted engine's per-operation transition loop
func (p *proc) scriptSegment(msg *Message, ok bool, n int64) {
	defer func() {
		if r := recover(); r != nil {
			p.pending = ScriptOp{Kind: ScriptHalt}
			p.err = fmt.Errorf("logp: processor %d panicked: %v", p.id, r)
		}
	}()
	s := p.m.script
	for {
		p.pending = s.Next(p.id, ScriptResult{Msg: *msg, OK: ok, N: n, Now: p.clock})
		switch op := &p.pending; op.Kind {
		case ScriptCompute:
			if op.N < 0 {
				panic(fmt.Sprintf("logp: Compute(%d) with negative cycles", op.N))
			}
			if op.N > 0 {
				p.clock += op.N
				p.localOps++
			}

		case ScriptWait:
			if op.N > p.clock {
				p.clock = op.N
			}
			p.localOps++

		case ScriptSend:
			if op.Dst < 0 || op.Dst >= p.m.params.P {
				panic(fmt.Sprintf("logp: Send to invalid destination %d (P=%d)", op.Dst, p.m.params.P))
			}
			if op.Dst == p.id {
				panic("logp: Send to self; use local state instead")
			}
			fallthrough

		case ScriptHalt, ScriptRecv, ScriptTryRecv, ScriptBuffered:
			return

		default:
			panic(fmt.Sprintf("logp: unknown script op kind %d", op.Kind))
		}
		msg, ok, n = &noMsg, false, 0
	}
}
