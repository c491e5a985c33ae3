// Package bsp implements Valiant's Bulk-Synchronous Parallel model as
// an executable virtual machine, following the definition in Section
// 2.1 of Bilardi et al., "BSP vs LogP".
//
// A BSP machine executes a sequence of supersteps. Within a superstep
// each processor extracts messages from its input pool, computes on
// local data, and inserts messages into its output pool; the superstep
// ends with a global barrier, at which every output-pool message moves
// to its destination's input pool (discarding whatever was left there)
// and the machine charges
//
//	T_superstep = w + g*h + l
//
// where w is the maximum local work, h the maximum number of messages
// sent or received by any processor, and g, l the machine's bandwidth
// and latency/synchronization parameters.
//
// Processors run one at a time, as coroutines resumed in id order, so
// every pool, cost and error is independent of the host's scheduling.
package bsp

import (
	"fmt"
	"iter"
)

// Params carries the BSP machine parameters g (bandwidth inverse) and
// L (here: the paper's l, the barrier/latency term).
type Params struct {
	// P is the number of processors.
	P int
	// G is the paper's g: the time per message of an h-relation, so
	// that routing costs g*h.
	G int64
	// L is the paper's l: an upper bound on barrier synchronization
	// time, charged once per superstep.
	L int64
}

// Validate checks the parameters: P >= 1, g >= 1, l >= 1.
func (p Params) Validate() error {
	if p.P < 1 {
		return fmt.Errorf("bsp: P = %d, need at least one processor", p.P)
	}
	if p.G < 1 {
		return fmt.Errorf("bsp: g = %d, need g >= 1", p.G)
	}
	if p.L < 1 {
		return fmt.Errorf("bsp: l = %d, need l >= 1", p.L)
	}
	return nil
}

// String renders the parameters compactly, e.g. "BSP(p=16 g=2 l=64)".
func (p Params) String() string {
	return fmt.Sprintf("BSP(p=%d g=%d l=%d)", p.P, p.G, p.L)
}

// Message is the unit of communication; the field layout matches
// logp.Message so cross-simulators can translate mechanically.
type Message struct {
	Src, Dst int
	Tag      int32
	Payload  int64
	Aux      int64
}

// Proc is the interface a BSP program uses to drive its processor.
// It is an interface so the cross-simulator in internal/core can run
// unmodified BSP programs on a LogP substrate (Theorems 2 and 3).
type Proc interface {
	// ID returns this processor's identifier in [0, P()).
	ID() int
	// P returns the number of processors.
	P() int
	// Params returns the machine parameters.
	Params() Params
	// Compute charges n >= 0 units of local work to the current
	// superstep.
	Compute(n int64)
	// Send inserts a message into the output pool. It is delivered
	// to dst's input pool at the next barrier. Sending to self is
	// allowed in BSP (the message traverses the communication
	// medium and counts toward h).
	Send(dst int, tag int32, payload, aux int64)
	// Recv extracts the next message from the input pool, which
	// holds the messages delivered at the last barrier. It reports
	// false when the pool is empty.
	Recv() (Message, bool)
	// Inbox returns the number of messages left in the input pool.
	Inbox() int
	// Sync ends the superstep: it blocks until all processors reach
	// their barrier, then resumes with the input pool replaced by
	// the newly delivered messages.
	Sync()
	// Superstep returns the index of the current superstep,
	// starting from 0.
	Superstep() int
}

// Program is the code executed by every processor of a Machine.
type Program func(p Proc)

// SuperstepCost records the three cost components of one superstep.
type SuperstepCost struct {
	W int64 // max local operations on any processor
	H int64 // max messages sent or received by any processor
}

// Time returns w + g*h + l under the given parameters, or zero for an
// empty trailing superstep (no work, no messages).
func (s SuperstepCost) Time(params Params) int64 {
	if s.W == 0 && s.H == 0 {
		return 0
	}
	return s.W + params.G*s.H + params.L
}

// Result reports the outcome of executing a Program.
type Result struct {
	// Time is the total BSP time: the sum of superstep costs.
	Time int64
	// Supersteps is the number of charged supersteps.
	Supersteps int
	// MessagesSent counts all messages routed.
	MessagesSent int64
	// Costs holds the per-superstep cost components, in order.
	Costs []SuperstepCost
}

// Machine is an executable BSP virtual machine. It is not safe for
// concurrent use; a single Run executes at a time.
type Machine struct {
	params Params
}

// NewMachine builds a machine with the given parameters, panicking on
// invalid ones (an experiment-setup error).
func NewMachine(params Params) *Machine {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Machine{params: params}
}

// Params returns the machine parameters.
func (m *Machine) Params() Params { return m.params }

type proc struct {
	id        int
	m         *Machine
	work      int64
	outbox    []Message
	inbox     []Message
	inboxPos  int
	superstep int

	// next resumes the program until its next Sync or its end; yield
	// parks it at a Sync. parked reports where the last resumption
	// stopped, and err records a panic that ended the program.
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	parked bool
	err    error
}

var _ Proc = (*proc)(nil)

func (p *proc) ID() int        { return p.id }
func (p *proc) P() int         { return p.m.params.P }
func (p *proc) Params() Params { return p.m.params }
func (p *proc) Superstep() int { return p.superstep }

func (p *proc) Compute(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("bsp: Compute(%d) with negative work", n))
	}
	p.work += n
}

func (p *proc) Send(dst int, tag int32, payload, aux int64) {
	if dst < 0 || dst >= p.m.params.P {
		panic(fmt.Sprintf("bsp: Send to invalid destination %d (P=%d)", dst, p.m.params.P))
	}
	p.outbox = append(p.outbox, Message{Src: p.id, Dst: dst, Tag: tag, Payload: payload, Aux: aux})
}

func (p *proc) Recv() (Message, bool) {
	if p.inboxPos >= len(p.inbox) {
		return Message{}, false
	}
	msg := p.inbox[p.inboxPos]
	p.inboxPos++
	return msg, true
}

func (p *proc) Inbox() int { return len(p.inbox) - p.inboxPos }

func (p *proc) Sync() {
	// Park at the barrier; Run replaces the input pool before resuming
	// p, discarding prior contents per the model.
	p.yield(struct{}{})
	p.inboxPos = 0
	p.work = 0
	p.outbox = p.outbox[:0]
	p.superstep++
}

// program adapts prog to the coroutine Run resumes: it ends at prog's
// return or panic, and a panic becomes p.err.
func (p *proc) program(prog Program) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p.err = fmt.Errorf("bsp: processor %d panicked: %v", p.id, r)
			}
		}()
		prog(p)
	}
}

// Run executes prog on every processor and returns the accumulated
// cost. Programs must not share mutable state except through messages
// or per-processor slots: only messages are charged. Each processor's
// program is a coroutine: in every superstep Run resumes the active
// ones in id order, each until it parks in Sync or its program ends,
// and only then reads the outboxes and refills the input pools. An
// input pool lists its messages by source id, then send order. A
// processor that panics ends there, its last superstep's work and
// messages dropped; the error reported is the lowest-id panic of the
// earliest superstep.
func (m *Machine) Run(prog Program) (Result, error) {
	n := m.params.P
	active := make([]*proc, n)
	for i := range active {
		p := &proc{id: i, m: m}
		// No stop function: nothing blocks a BSP program, so Run
		// resumes every coroutine until it ends.
		p.next, _ = iter.Pull(p.program(prog))
		active[i] = p
	}

	var res Result
	var firstErr error
	inboxes := make([][]Message, n)
	for len(active) > 0 {
		for _, p := range active {
			_, p.parked = p.next()
		}
		for d := range inboxes {
			inboxes[d] = inboxes[d][:0]
		}
		var cost SuperstepCost
		synced := active[:0]
		for _, p := range active {
			if p.err != nil {
				if firstErr == nil {
					firstErr = p.err
				}
				continue
			}
			cost.W = max(cost.W, p.work)
			cost.H = max(cost.H, int64(len(p.outbox)))
			for _, msg := range p.outbox {
				inboxes[msg.Dst] = append(inboxes[msg.Dst], msg)
			}
			res.MessagesSent += int64(len(p.outbox))
			if p.parked {
				synced = append(synced, p)
			}
		}
		for _, in := range inboxes {
			cost.H = max(cost.H, int64(len(in)))
		}
		if t := cost.Time(m.params); t > 0 {
			res.Time += t
			res.Supersteps++
			res.Costs = append(res.Costs, cost)
		}
		for _, p := range synced {
			p.inbox = inboxes[p.id]
		}
		active = synced
	}
	return res, firstErr
}
