// Package reference is a deliberately naive LogP interpreter: the
// differential oracle that package logp's engine must match bit for
// bit.
//
// It is transcribed from the machine definition in Section 2.2 of
// "BSP vs LogP" and from the engine's documented choices where the
// paper leaves one open (the delivery-instant policy, the acceptance
// order among waiting submissions, and message numbering). It shares
// no code with the engine — only logp's exported types, stats.RNG and
// the standard library — so a bug in the engine's scheduler, medium or
// gap logic cannot hide in both. Speed is not a goal: the interpreter
// steps a global clock through the instants at which anything can
// happen, scans every processor and every pending message at each, and
// keeps no heaps, bitsets, slabs or watermarks.
//
// The model, as interpreted here:
//
//   - A processor's operation executes at its local clock. Compute(n)
//     advances the clock by n and WaitUntil(t) to at least t. Send
//     submits at s = max(clock+o, next), where next is G after the
//     processor's previous submission or acquisition (one gap stream
//     for both), and the sender then waits until the medium accepts
//     the message; its clock becomes the acceptance instant. Recv
//     acquires the oldest buffered message at r = max(clock, arrival,
//     next) and its clock becomes r+o, or waits for a delivery.
//     TryRecv acquires if a message has arrived and the gap permits,
//     and otherwise costs one cycle. Buffered counts the arrivals.
//   - Stalling Rule: at any instant, a destination with k waiting
//     submissions and s free capacity slots (capacity ceil(L/G)
//     accepted-but-undelivered messages) accepts min(k, s) of them.
//   - An accepted message is delivered at some instant in (a, a+L],
//     at most one per destination per instant.
package reference

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"

	"repro/internal/logp"
	"repro/internal/stats"
)

// Config selects the admissible execution to interpret, as the
// matching logp options do for a freshly built Machine's first Run.
type Config struct {
	// Policy picks each delivery instant (logp.WithDeliveryPolicy).
	Policy logp.DeliveryPolicy
	// Order picks among waiting submissions (logp.WithAcceptOrder).
	Order logp.AcceptOrder
	// Seed seeds the random choices (logp.WithSeed). It is used as
	// given; a Machine built without WithSeed uses seed 1.
	Seed uint64
	// StrictStallFree fails a run that stalls
	// (logp.WithStrictStallFree).
	StrictStallFree bool
	// Sink, when set, receives every event in the order the engine's
	// event log would (logp.WithEventLog).
	Sink func(logp.Event)
}

type state uint8

const (
	ready      state = iota // holds an operation to execute at its clock
	waitAccept              // submitted a message the medium has not accepted
	waitMsg                 // in Recv with an empty input buffer
	done                    // returned or panicked
)

type opKind uint8

const (
	opCompute opKind = iota
	opWait
	opSend
	opRecv
	opTryRecv
	opBuffered
)

// op is one Proc call handed from a program to the interpreter.
type op struct {
	kind opKind
	n    int64
	msg  logp.Message
}

// reply is the interpreter's answer to an op.
type reply struct {
	msg logp.Message
	ok  bool
	n   int
}

// message is one message's record from submission to acquisition.
type message struct {
	msg    logp.Message
	seq    int64 // 1, 2, ... in Send-execution order
	submit int64 // submission instant
	accept int64 // 1, 2, ... in acceptance order, once accepted
	at     int64 // delivery instant, once accepted
}

// errStopped unwinds the programs still blocked when a run ends.
var errStopped = errors.New("reference: run ended")

// proc is one processor: the interpreter's view of it and the
// logp.Proc its program drives.
type proc struct {
	id     int
	params logp.Params

	clock int64
	next  int64 // earliest instant of the next submission or acquisition
	state state
	op    op        // the operation to execute while ready
	buf   []message // delivered, not yet acquired, in arrival order
	err   error     // the program's panic

	pull  func() (op, bool)
	stop  func()
	yield func(op) bool
	reply reply
}

// Run interprets prog on a p-processor LogP machine with the given
// parameters and returns what a fresh logp.Machine's first Run reports
// under the same configuration: the same Result, the same events in the
// same order, and the same error text.
func Run(params logp.Params, prog logp.Program, cfg Config) (logp.Result, error) {
	if err := params.Validate(); err != nil {
		return logp.Result{}, err
	}
	r := &interp{
		params:   params,
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		capacity: (params.L + params.G - 1) / params.G,
		procs:    make([]*proc, params.P),
		queued:   make([][]message, params.P),
		inFlight: make([][]message, params.P),
	}
	for id := range r.procs {
		p := &proc{id: id, params: params}
		p.pull, p.stop = iter.Pull(p.program(prog))
		r.procs[id] = p
	}
	defer func() {
		for _, p := range r.procs {
			p.stop() // unwinds a program still blocked when the run ends
		}
	}()
	for _, p := range r.procs {
		r.resume(p)
	}
	for t := int64(0); t != math.MaxInt64; t = r.nextInstant() {
		r.instant(t)
		// 5. Run each ready processor whose clock is t, in id order,
		// until its clock passes t or it blocks.
		for _, p := range r.procs {
			for p.state == ready && p.clock == t {
				r.exec(p)
			}
		}
	}
	return r.finish()
}

// interp is the machine: processors plus the medium.
type interp struct {
	params   logp.Params
	cfg      Config
	rng      *stats.RNG
	capacity int64
	procs    []*proc
	seq      int64 // messages submitted
	accepts  int64 // messages accepted

	submitted []message   // submitted, before their submission instant
	queued    [][]message // per destination: submitted, not accepted
	inFlight  [][]message // per destination: accepted, not delivered

	res logp.Result
}

// emit hands the sink the event of kind for m at instant t.
func (r *interp) emit(t int64, kind logp.EventKind, m message) {
	if r.cfg.Sink != nil {
		r.cfg.Sink(logp.Event{Time: t, Kind: kind, Seq: m.seq, Msg: m.msg})
	}
}

// instant runs the medium at instant t.
func (r *interp) instant(t int64) {
	// 1. Deliver the messages due at t, in acceptance order.
	var due []message
	for dst, flying := range r.inFlight {
		kept := flying[:0]
		for _, m := range flying {
			if m.at == t {
				due = append(due, m)
			} else {
				kept = append(kept, m)
			}
		}
		r.inFlight[dst] = kept
	}
	slices.SortFunc(due, func(a, b message) int { return cmp.Compare(a.accept, b.accept) })
	for _, m := range due {
		r.emit(t, logp.EvDeliver, m)
		dst := r.procs[m.msg.Dst]
		dst.buf = append(dst.buf, m)
		r.res.LastDelivery = t
		r.res.MaxBufferDepth = max(r.res.MaxBufferDepth, len(dst.buf))
	}

	// 2. Queue the submissions whose instant is t.
	waiting := r.submitted[:0]
	for _, m := range r.submitted {
		if m.submit == t {
			r.queued[m.msg.Dst] = append(r.queued[m.msg.Dst], m)
		} else {
			waiting = append(waiting, m)
		}
	}
	r.submitted = waiting

	// 3. Stalling Rule: each destination accepts waiting submissions
	// while it has a free capacity slot.
	accepted := make([]bool, r.params.P)
	for dst := range r.queued {
		for len(r.queued[dst]) > 0 && int64(len(r.inFlight[dst])) < r.capacity {
			m := r.pick(dst)
			if t > m.submit {
				r.res.StallEvents++
				r.res.StallCycles += t - m.submit
			}
			r.accepts++
			m.accept = r.accepts
			m.at = r.deliveryInstant(dst, t)
			r.emit(t, logp.EvAccept, m)
			r.inFlight[dst] = append(r.inFlight[dst], m)
			accepted[m.msg.Src] = true
		}
	}

	// 4. Wake the accepted senders, then the receivers with a message.
	for id, p := range r.procs {
		if accepted[id] {
			p.clock = t
			p.reply = reply{}
			r.resume(p)
		}
	}
	for _, p := range r.procs {
		if p.state == waitMsg && len(p.buf) > 0 {
			p.reply = reply{msg: r.acquire(p), ok: true}
			r.resume(p)
		}
	}
}

// pick removes and returns the waiting submission to dst that the
// acceptance order selects. Submissions are ranked oldest first, ties
// broken by lower source id.
func (r *interp) pick(dst int) message {
	q := r.queued[dst]
	slices.SortFunc(q, func(a, b message) int {
		if c := cmp.Compare(a.submit, b.submit); c != 0 {
			return c
		}
		return cmp.Compare(a.msg.Src, b.msg.Src)
	})
	i := 0
	switch r.cfg.Order {
	case logp.AcceptLIFO:
		i = len(q) - 1
	case logp.AcceptRandom:
		i = r.rng.Intn(len(q))
	}
	m := q[i]
	r.queued[dst] = slices.Delete(q, i, i+1)
	return m
}

// deliveryInstant chooses a free instant in (a, a+L] at dst: one that
// no message in flight to dst occupies.
func (r *interp) deliveryInstant(dst int, a int64) int64 {
	free := func(d int64) bool {
		return !slices.ContainsFunc(r.inFlight[dst], func(m message) bool { return m.at == d })
	}
	L := r.params.L
	switch r.cfg.Policy {
	case logp.DeliverMaxLatency:
		for d := a + L; d > a; d-- {
			if free(d) {
				return d
			}
		}
	case logp.DeliverMinLatency:
		for d := a + 1; d <= a+L; d++ {
			if free(d) {
				return d
			}
		}
	case logp.DeliverRandom:
		// Uniform over the free instants: a reservoir of one, drawn in
		// ascending instant order.
		chosen, seen := int64(-1), 0
		for d := a + 1; d <= a+L; d++ {
			if free(d) {
				seen++
				if r.rng.Intn(seen) == 0 {
					chosen = d
				}
			}
		}
		if chosen >= 0 {
			return chosen
		}
	}
	panic(fmt.Sprintf("reference: no free delivery instant for processor %d after %d", dst, a))
}

// acquire removes p's oldest buffered message, charging the gap and
// the overhead o.
func (r *interp) acquire(p *proc) logp.Message {
	m := p.buf[0]
	p.buf = p.buf[1:]
	at := max(p.clock, m.at, p.next)
	r.emit(at, logp.EvAcquire, m)
	p.clock = at + r.params.O
	p.next = at + r.params.G
	return m.msg
}

// exec executes p's operation at its clock.
func (r *interp) exec(p *proc) {
	o := p.op
	p.reply = reply{}
	switch o.kind {
	case opCompute:
		p.clock += o.n
	case opWait:
		p.clock = max(p.clock, o.n)
	case opBuffered:
		for _, m := range p.buf {
			if m.at <= p.clock {
				p.reply.n++
			}
		}
	case opTryRecv:
		if len(p.buf) > 0 && p.buf[0].at <= p.clock && p.next <= p.clock {
			p.reply = reply{msg: r.acquire(p), ok: true}
		} else {
			p.clock++
		}
	case opRecv:
		if len(p.buf) == 0 {
			p.state = waitMsg
			return
		}
		p.reply = reply{msg: r.acquire(p), ok: true}
	case opSend:
		s := max(p.clock+r.params.O, p.next)
		p.clock = s
		p.next = s + r.params.G
		r.seq++
		r.res.MessagesSent++
		m := message{msg: o.msg, seq: r.seq, submit: s}
		r.emit(s, logp.EvSubmit, m)
		r.submitted = append(r.submitted, m)
		p.state = waitAccept
		return
	}
	r.resume(p)
}

// resume runs p's program to its next operation, or to its end.
func (r *interp) resume(p *proc) {
	o, ok := p.pull()
	if ok {
		p.op = o
		p.state = ready
		return
	}
	p.state = done
}

// nextInstant returns the earliest instant at which anything can
// happen — a processor's operation, a submission reaching the medium,
// or a delivery — or MaxInt64 when nothing can. Waiting submissions
// need no instant of their own: they are accepted only when a delivery
// frees a slot.
func (r *interp) nextInstant() int64 {
	t := int64(math.MaxInt64)
	for _, p := range r.procs {
		if p.state == ready {
			t = min(t, p.clock)
		}
	}
	for _, m := range r.submitted {
		t = min(t, m.submit)
	}
	for _, flying := range r.inFlight {
		for _, m := range flying {
			t = min(t, m.at)
		}
	}
	return t
}

// finish reports the end of the run: a deadlock if a processor is
// still blocked, else the Result with the earliest processor panic or
// the strict-stall-free failure.
func (r *interp) finish() (logp.Result, error) {
	// A panic ends the run with an error: the earliest in simulated
	// time (the panicking processor's clock), lowest id among ties.
	var panicked *proc
	for _, p := range r.procs {
		if p.err != nil && (panicked == nil || p.clock < panicked.clock) {
			panicked = p
		}
	}
	var onRecv, onSend []int
	for _, p := range r.procs {
		switch p.state {
		case waitMsg:
			onRecv = append(onRecv, p.id)
		case waitAccept:
			onSend = append(onSend, p.id)
		}
	}
	if onRecv != nil || onSend != nil {
		if panicked != nil {
			return logp.Result{}, panicked.err
		}
		return logp.Result{}, fmt.Errorf("logp: deadlock: processors %v blocked on Recv, %v blocked on Send, no messages in flight", onRecv, onSend)
	}
	res := r.res
	res.ProcTimes = make([]int64, len(r.procs))
	for i, p := range r.procs {
		res.ProcTimes[i] = p.clock
		res.Time = max(res.Time, p.clock)
	}
	if panicked != nil {
		return res, panicked.err
	}
	if r.cfg.StrictStallFree && res.StallEvents > 0 {
		return res, fmt.Errorf("logp: execution stalled %d times under WithStrictStallFree", res.StallEvents)
	}
	return res, nil
}

// program adapts prog to the coroutine the interpreter pulls
// operations from. A panic ends the processor and is reported as the
// run's error; a program still blocked when the run ends is unwound.
func (p *proc) program(prog logp.Program) iter.Seq[op] {
	return func(yield func(op) bool) {
		p.yield = yield
		defer func() {
			if v := recover(); v != nil && v != errStopped {
				p.err = fmt.Errorf("logp: processor %d panicked: %v", p.id, v)
			}
		}()
		prog(p)
	}
}

// call hands o to the interpreter and returns its reply.
func (p *proc) call(o op) reply {
	if !p.yield(o) {
		panic(errStopped)
	}
	return p.reply
}

var _ logp.Proc = (*proc)(nil)

func (p *proc) ID() int             { return p.id }
func (p *proc) P() int              { return p.params.P }
func (p *proc) Params() logp.Params { return p.params }
func (p *proc) Now() int64          { return p.clock }

func (p *proc) Compute(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("logp: Compute(%d) with negative cycles", n))
	}
	if n > 0 {
		p.call(op{kind: opCompute, n: n})
	}
}

func (p *proc) WaitUntil(t int64) { p.call(op{kind: opWait, n: t}) }

func (p *proc) Send(dst int, tag int32, payload, aux int64) {
	p.SendBody(dst, tag, payload, aux, nil)
}

func (p *proc) SendBody(dst int, tag int32, payload, aux int64, body interface{}) {
	if dst < 0 || dst >= p.params.P {
		panic(fmt.Sprintf("logp: Send to invalid destination %d (P=%d)", dst, p.params.P))
	}
	if dst == p.id {
		panic("logp: Send to self; use local state instead")
	}
	p.call(op{kind: opSend, msg: logp.Message{
		Src: p.id, Dst: dst, Tag: tag, Payload: payload, Aux: aux, Body: body,
	}})
}

// SendFrom is its definition: one SendBody per element, in order.
func (p *proc) SendFrom(src []logp.Message) {
	for _, m := range src {
		p.SendBody(m.Dst, m.Tag, m.Payload, m.Aux, m.Body)
	}
}

func (p *proc) Recv() logp.Message { return p.call(op{kind: opRecv}).msg }

// RecvInto is its definition: len(dst) Recvs, in order.
func (p *proc) RecvInto(dst []logp.Message) {
	for i := range dst {
		dst[i] = p.Recv()
	}
}

func (p *proc) TryRecv() (logp.Message, bool) {
	r := p.call(op{kind: opTryRecv})
	return r.msg, r.ok
}

// TryRecvInto is its definition: poll while dst has room, a message is
// buffered and the clock has not passed until.
func (p *proc) TryRecvInto(dst []logp.Message, until int64) int {
	n := 0
	for n < len(dst) && p.Buffered() > 0 && p.Now() <= until {
		if m, ok := p.TryRecv(); ok {
			dst[n] = m
			n++
		}
	}
	return n
}

func (p *proc) Buffered() int { return p.call(op{kind: opBuffered}).n }
