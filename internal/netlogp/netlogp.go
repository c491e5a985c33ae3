// Package netlogp implements the LogP abstraction directly on the
// point-to-point networks of Section 5, completing the direction that
// internal/netrun provides for BSP: an unmodified logp.Program runs
// with its processors paced by the overhead o and gap G, while every
// message's delivery time is decided by the packet network itself —
// the co-simulation steps a netsim.Router one step at a time, in
// lockstep with the processor clocks, injecting each submission at its
// instant.
//
// The machine reports the per-message latency distribution it
// observed, which is exactly the quantity the paper's Section 5
// analysis bounds: a network supports stall-free LogP with latency
// parameter L* only if capacity-paced traffic's worst message latency
// stays below L*. Experiment E13 measures that per topology.
package netlogp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/logp"
	"repro/internal/netsim"
)

// Machine runs LogP programs over a packet network.
type Machine struct {
	params logp.Params
	net    *netsim.Network
}

// NewMachine pairs LogP pacing parameters with a network. The
// parameters' P must match the network's processor count; L is the
// nominal latency exposed to programs via Params() (e.g. for choosing
// tree arities) but plays no role in delivery — the network does.
func NewMachine(params logp.Params, net *netsim.Network) *Machine {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.P != net.G.P() {
		panic(fmt.Sprintf("netlogp: params have p=%d, network %d", params.P, net.G.P()))
	}
	return &Machine{params: params, net: net}
}

// Result reports a run.
type Result struct {
	// Time is the maximum final processor clock.
	Time int64
	// Messages counts submissions.
	Messages int64
	// MaxMsgLatency and MeanMsgLatency describe observed
	// injection-to-arrival times.
	MaxMsgLatency  int64
	MeanMsgLatency float64
	// ProcTimes holds each processor's final clock.
	ProcTimes []int64
}

// Run executes prog. The simulation is deterministic. The engine
// drives prog as a Script through logp.ProgramAsScript, and the
// programs a failed run leaves parked are unwound before Run returns.
func (m *Machine) Run(prog logp.Program) (Result, error) {
	sc := logp.ProgramAsScript(m.params, prog)
	defer sc.Stop()
	eng := &engine{
		params: m.params,
		router: m.net.NewRouter(),
		script: sc,
	}
	if err := eng.run(); err != nil {
		return Result{}, err
	}
	res := Result{
		Messages:      eng.totalMsgs,
		MaxMsgLatency: eng.maxLat,
		ProcTimes:     make([]int64, m.params.P),
	}
	if eng.totalMsgs > 0 {
		res.MeanMsgLatency = float64(eng.sumLat) / float64(eng.totalMsgs)
	}
	for i, p := range eng.procs {
		res.ProcTimes[i] = p.clock
		if p.clock > res.Time {
			res.Time = p.clock
		}
	}
	return res, nil
}

// engine is the co-simulation core: a conservative scheduler that
// commits the processor with the smallest clock, with the packet
// network as the medium. The network clock is advanced lazily: before a
// processor acts at time T, every network step up to T has been
// performed, injecting queued submissions at their instants.
type engine struct {
	params logp.Params
	router *netsim.Router
	script *logp.ProgramScript
	procs  []*nproc

	injections injHeap // submissions not yet handed to the network
	inFlight   map[int32]flight
	msgSeq     int32 // the last submission's id, its packet's tag
	totalMsgs  int64
	maxLat     int64
	sumLat     int64

	procErr error
}

type flight struct {
	msg logp.Message
	at  int64 // injection step
}

type injection struct {
	at  int64
	id  int32
	msg logp.Message
}

type injHeap []injection

func (h injHeap) Len() int { return len(h) }
func (h injHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].id < h[j].id)
}
func (h injHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *injHeap) Push(x interface{}) { *h = append(*h, x.(injection)) }
func (h *injHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

type nstate uint8

const (
	nReady nstate = iota
	nWaitMsg
	nDone
)

type narrived struct {
	msg logp.Message
	at  int64
}

type nproc struct {
	id    int
	clock int64
	// nextComm is the earliest instant of the next communication
	// operation: submissions and acquisitions share one per-processor
	// gap stream, as in the logp engine.
	nextComm int64
	buf      []narrived
	state    nstate
	// op is the pending operation; res answers the previous one and is
	// passed to the next Next call.
	op  logp.ScriptOp
	res logp.ScriptResult
}

func (e *engine) run() error {
	n := e.params.P
	e.procs = make([]*nproc, n)
	e.inFlight = map[int32]flight{}
	for i := 0; i < n; i++ {
		p := &nproc{id: i}
		e.procs[i] = p
		e.await(p)
	}

	for {
		var next *nproc
		horizon := int64(math.MaxInt64)
		for _, p := range e.procs {
			if p.state == nReady && p.clock < horizon {
				horizon = p.clock
				next = p
			}
		}
		if next == nil {
			allDone := true
			for _, p := range e.procs {
				if p.state != nDone {
					allDone = false
					break
				}
			}
			if allDone {
				break
			}
			if e.procErr != nil {
				return e.procErr
			}
			if len(e.injections) == 0 && e.router.Pending() == 0 {
				var blocked []int
				for _, p := range e.procs {
					if p.state == nWaitMsg {
						blocked = append(blocked, p.id)
					}
				}
				return fmt.Errorf("netlogp: deadlock: processors %v blocked on Recv with no packets in flight", blocked)
			}
			// Everybody waits on the network: advance it one step.
			e.advanceTo(e.router.Step() + 1)
			continue
		}
		// Commit the network up to the acting processor's clock.
		e.advanceTo(next.clock)
		e.exec(next)
	}
	if e.procErr != nil {
		return e.procErr
	}
	// Messages still in flight when the last processor halts count in
	// Messages; deliver them so they count in the latency statistics
	// too, as the logp engine drains its in-flight deliveries.
	for len(e.injections) > 0 || e.router.Pending() > 0 {
		e.advanceTo(e.router.Step() + 1)
	}
	return nil
}

// advanceTo steps the network to the given time, injecting queued
// submissions at their instants and delivering arrivals into buffers.
func (e *engine) advanceTo(t int64) {
	for e.router.Step() < t {
		now := e.router.Step()
		for len(e.injections) > 0 && e.injections[0].at <= now {
			inj := heap.Pop(&e.injections).(injection)
			e.router.Inject(inj.id, inj.msg.Src, inj.msg.Dst)
			e.inFlight[inj.id] = flight{msg: inj.msg, at: inj.at}
		}
		arrivals := e.router.Advance()
		var wake []*nproc
		for _, a := range arrivals {
			fl := e.inFlight[a.ID]
			delete(e.inFlight, a.ID)
			lat := a.Step - fl.at
			if lat > e.maxLat {
				e.maxLat = lat
			}
			e.sumLat += lat
			p := e.procs[a.Dst]
			p.buf = append(p.buf, narrived{msg: fl.msg, at: a.Step})
			if p.state == nWaitMsg {
				wake = append(wake, p)
			}
		}
		sort.Slice(wake, func(i, j int) bool { return wake[i].id < wake[j].id })
		for _, p := range wake {
			if p.state == nWaitMsg && len(p.buf) > 0 {
				e.completeRecv(p)
			}
		}
	}
}

// await obtains p's next operation and marks p ready, or done when its
// program returns or panics.
func (e *engine) await(p *nproc) {
	if err := e.next(p); err != nil {
		p.state = nDone
		if e.procErr == nil {
			e.procErr = err
		}
		return
	}
	if p.op.Kind == logp.ScriptHalt {
		p.state = nDone
		return
	}
	p.state = nReady
}

// next resumes p's program for its next operation and validates it as
// a Proc would. A panic out of the program, or a rejected operation,
// becomes the processor's error.
func (e *engine) next(p *nproc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("netlogp: processor %d panicked: %v", p.id, r)
		}
	}()
	p.res.Now = p.clock
	op := e.script.Next(p.id, p.res)
	switch op.Kind {
	case logp.ScriptCompute:
		if op.N < 0 {
			panic(fmt.Sprintf("netlogp: Compute(%d) with negative cycles", op.N))
		}
	case logp.ScriptSend:
		if op.Dst < 0 || op.Dst >= e.params.P {
			panic(fmt.Sprintf("netlogp: Send to invalid destination %d (P=%d)", op.Dst, e.params.P))
		}
		if op.Dst == p.id {
			panic("netlogp: Send to self; use local state instead")
		}
	}
	p.op = op
	return nil
}

// resume answers p's pending operation with r and obtains the next one.
func (e *engine) resume(p *nproc, r logp.ScriptResult) {
	p.res = r
	e.await(p)
}

func (e *engine) exec(p *nproc) {
	op := &p.op
	switch op.Kind {
	case logp.ScriptCompute:
		p.clock += op.N
		e.resume(p, logp.ScriptResult{})
	case logp.ScriptWait:
		if op.N > p.clock {
			p.clock = op.N
		}
		e.resume(p, logp.ScriptResult{})
	case logp.ScriptBuffered:
		cnt := int64(0)
		for _, a := range p.buf {
			if a.at > p.clock {
				break
			}
			cnt++
		}
		e.resume(p, logp.ScriptResult{N: cnt})
	case logp.ScriptSend:
		if e.msgSeq == math.MaxInt32 { // message ids are int32 packet tags
			p.state = nDone
			if e.procErr == nil {
				e.procErr = errors.New("netlogp: more than 2^31-1 messages in one run")
			}
			return
		}
		s := p.clock + e.params.O
		if s < p.nextComm {
			s = p.nextComm
		}
		p.nextComm = s + e.params.G
		p.clock = s
		e.msgSeq++
		e.totalMsgs++
		msg := logp.Message{Src: p.id, Dst: op.Dst, Tag: op.Tag, Payload: op.Payload, Aux: op.Aux, Body: op.Body}
		heap.Push(&e.injections, injection{at: s, id: e.msgSeq, msg: msg})
		e.resume(p, logp.ScriptResult{})
	case logp.ScriptRecv:
		if len(p.buf) > 0 {
			e.completeRecv(p)
		} else {
			p.state = nWaitMsg
		}
	case logp.ScriptTryRecv:
		if len(p.buf) > 0 && p.buf[0].at <= p.clock && p.nextComm <= p.clock {
			head := p.buf[0]
			p.buf = p.buf[1:]
			r := p.clock
			p.clock = r + e.params.O
			p.nextComm = r + e.params.G
			e.resume(p, logp.ScriptResult{Msg: head.msg, OK: true})
		} else {
			p.clock++
			e.resume(p, logp.ScriptResult{})
		}
	}
}

func (e *engine) completeRecv(p *nproc) {
	head := p.buf[0]
	p.buf = p.buf[1:]
	r := p.clock
	if head.at > r {
		r = head.at
	}
	if p.nextComm > r {
		r = p.nextComm
	}
	p.clock = r + e.params.O
	p.nextComm = r + e.params.G
	p.state = nReady
	e.resume(p, logp.ScriptResult{Msg: head.msg, OK: true})
}
