package logp

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"strings"

	"repro/internal/runq"
	"repro/internal/stats"
)

// DeliveryPolicy selects the arrival instant of an accepted message
// within the window (a, a+L] permitted by the model. The exact delivery
// time of a message is unpredictable under LogP; a program is correct
// only if it computes the required map under every admissible choice,
// so the policy is pluggable to let tests probe several executions.
type DeliveryPolicy uint8

const (
	// DeliverMaxLatency delivers as late as the model allows (the
	// adversarial choice against latency-sensitive programs).
	DeliverMaxLatency DeliveryPolicy = iota
	// DeliverMinLatency delivers at the earliest free instant (the
	// adversarial choice against programs that assume slowness).
	DeliverMinLatency
	// DeliverRandom picks a uniformly random free instant in the
	// window, seeded by the machine seed.
	DeliverRandom
)

func (d DeliveryPolicy) String() string {
	switch d {
	case DeliverMaxLatency:
		return "max-latency"
	case DeliverMinLatency:
		return "min-latency"
	case DeliverRandom:
		return "random"
	default:
		return fmt.Sprintf("DeliveryPolicy(%d)", uint8(d))
	}
}

// Result reports the outcome of executing a Program on a Machine.
type Result struct {
	// Time is the completion time: the maximum final local clock
	// over all processors.
	Time int64
	// LastDelivery is the arrival time of the last message; it can
	// exceed Time if messages were still in flight at termination.
	LastDelivery int64
	// MessagesSent counts all submissions.
	MessagesSent int64
	// StallEvents counts messages whose acceptance was delayed past
	// their submission instant (zero for a stall-free execution).
	StallEvents int64
	// StallCycles totals, over all processors, the cycles spent in
	// the stalling state.
	StallCycles int64
	// MaxBufferDepth is the peak number of delivered-but-unacquired
	// messages at any single processor, relevant to the paper's
	// bounded-buffer discussion of the G <= L constraint.
	MaxBufferDepth int
	// ProcTimes holds each processor's final local clock.
	ProcTimes []int64
}

// Option configures a Machine.
type Option func(*Machine)

// WithDeliveryPolicy selects the message delivery-time policy
// (default DeliverMaxLatency).
func WithDeliveryPolicy(p DeliveryPolicy) Option {
	return func(m *Machine) { m.policy = p }
}

// WithSeed seeds the machine's random stream (used by DeliverRandom
// and AcceptRandom).
//
// Determinism contract: the i-th call to Run (counting from 0) draws
// its randomness from a stream derived deterministically from
// (seed, i). Two machines built with the same seed therefore replay
// identical executions run for run, and any single run is exactly
// reproducible, while consecutive Run calls on one machine observe
// fresh admissible executions — repeated trials under DeliverRandom
// or AcceptRandom have real variance. Run 0 uses the seed unchanged,
// so recorded single-run results stay valid across this contract.
func WithSeed(seed uint64) Option {
	return func(m *Machine) { m.seed = seed }
}

// WithStrictStallFree makes Run return an error if any execution step
// stalls. Programs the paper calls "stall-free" are run under this
// option in tests to certify the claim.
func WithStrictStallFree() Option {
	return func(m *Machine) { m.strictStallFree = true }
}

// AcceptOrder selects which waiting submissions the Stalling Rule
// accepts first when a destination has fewer free slots than waiting
// messages. The paper fixes only the count min(k, s); "the order in
// which messages are accepted [is] completely unspecified ... we
// assume that any order is possible", so correct programs must work
// under every choice.
type AcceptOrder uint8

const (
	// AcceptFIFO takes the oldest submission (ties by processor id).
	AcceptFIFO AcceptOrder = iota
	// AcceptLIFO takes the newest submission, starving early senders.
	AcceptLIFO
	// AcceptRandom takes a uniformly random waiting submission.
	AcceptRandom
)

func (o AcceptOrder) String() string {
	switch o {
	case AcceptFIFO:
		return "fifo"
	case AcceptLIFO:
		return "lifo"
	case AcceptRandom:
		return "random"
	default:
		return fmt.Sprintf("AcceptOrder(%d)", uint8(o))
	}
}

// WithAcceptOrder selects the Stalling Rule's acceptance order
// (default AcceptFIFO).
func WithAcceptOrder(o AcceptOrder) Option {
	return func(m *Machine) { m.acceptOrder = o }
}

// Machine is an executable LogP virtual machine. It is not safe for
// concurrent use; a single Run executes at a time.
type Machine struct {
	params          Params
	policy          DeliveryPolicy
	seed            uint64
	strictStallFree bool
	acceptOrder     AcceptOrder
	eventLog        func(Event)
	auditor         *Auditor // per-run, when the process-wide audit hook is on

	rng      *stats.RNG
	procs    []*proc
	capacity int64 // params.Capacity(), cached off the per-instant path

	// ansMsg, ansOK and ansN are the engine's answer to the last
	// operation of the batch a Program-form processor crossed with (see
	// resume), read by the Proc methods right after their coroutine
	// switch. ansMsg points at the acquired message in its record, which
	// is freed only once the processor parks again. Exactly one
	// processor runs at a time, so one slot serves them all.
	ansMsg *Message
	ansOK  bool
	ansN   int64

	// deferred holds every Program's batch, deferCap slots per
	// processor id (see proc.dhead). reset sizes it for Run only, so a
	// RunScript machine never allocates it. A slot is zeroed as it is
	// popped, so a Body does not outlive its message.
	deferred []ScriptOp

	// openRuns holds, per processor id, a Program's open SendFrom and
	// receive runs (see procRun and resume). Like deferred it is sized
	// for Run only, and shutdown empties it, so a slice does not outlive
	// its Run.
	openRuns []procRun

	// arena backs every proc record (see arena.go): chunked slabs
	// reset wholesale between Runs, so a warm machine's startup sweep
	// allocates no per-processor objects and the GC scans chunks, not
	// a million individual procs.
	arena procArena

	// Processor lifecycle (see lazy.go and script.go). script is the
	// Script driving the current RunScript, nil under Run. procFree
	// pools recycled processor structs; startedBits marks ids ever
	// materialized this run, so a nil procs slot is a template when
	// clear and a recycled halted processor when set. procTimes,
	// doneStall and doneBufLen retire the still-observable facts of
	// recycled processors; doneCount and templateCount replace the O(P)
	// completion scan.
	script        Script
	procFree      []*proc
	startedBits   []uint64
	templateCount int
	doneCount     int
	procTimes     []int64
	doneStall     int64
	doneBufLen    map[int]int

	// events holds the pending medium events: submissions waiting for
	// their instant and accepted messages in flight (see eventWheel).
	events eventWheel

	// ready holds the runnable processors keyed by (clock, id), the
	// commit order. A processor is queued exactly while its state is
	// stateReady and the scheduler is not already committed to running
	// it. Entries are (clock, id) values rather than *proc: a
	// processor's clock only advances while it is out of the queue, so
	// the copied key never goes stale. The queue is monotone — pops are
	// nondecreasing, a processor re-parks at or after the clock it was
	// popped at, and a woken one at or after an instant that exceeds
	// every clock already popped — but a woken processor often lands
	// below those already re-parked at later clocks: 29.6% of the
	// randomized route's pushes at p = 8,192 miss the ring's tail.
	// processInstant's id-ordered wake passes make those misses sorted
	// streams, which the queue's side runs hold without heap sifts (see
	// runq.Queue).
	ready runq.Queue

	pendingQ  [][]int32 // per destination: recSlab indices, FIFO by (subAt, src)
	inTransit []int64   // per destination

	// recSlab backs every message's single record for its whole
	// lifecycle — pending-queue entry, in-flight delivery, buffered
	// arrival — so the pending/in-flight/buffer structures exchange
	// int32 indices instead of copying Message records, and freed
	// records recycle through the recFree intrusive free list; the
	// steady-state message path allocates nothing.
	recSlab []msgRec
	recFree int32

	// Reserved delivery instants, one ring-buffer bitset per
	// destination instead of the first version's map[int64]struct{}.
	// Instant d occupies bit (d & slotMask) of destination dst's
	// slotWords words at slotBits[dst*slotWords:]. All live
	// reservations for a destination lie within a span of at most L
	// instants (they sit in (a, a+L] for the latest acceptance time a,
	// and the delivery event at each instant clears its bit), so any
	// window of at least L+1 instants can never alias two live
	// reservations. The window is the event wheel's W, a power of two,
	// so the index is a mask rather than a division.
	slotBits  []uint64
	slotWords int
	slotMask  int64

	// Per-instant scratch, reused across processInstant calls so the
	// hot path does not allocate: one bit per processor id, consumed in
	// ascending word/bit order, which visits processors in id order
	// without the sorting pass an id list would need. Each set is
	// cleared as it is iterated, so the words are all-zero between
	// instants.
	dirtyBits    []uint64
	wakeSendBits []uint64
	wakeRecvBits []uint64
	procWords    int

	// emitOn is set when the run has an auditor or an event sink; every
	// emission site checks it first, so a run with neither builds no
	// Event.
	emitOn bool

	lastDelivery int64
	maxBuf       int
	totalMsgs    int64 // Sends committed this run; also the newest message's Seq
	stallEvents  int64
	simEvents    int64 // committed medium events + executed processor ops

	// procErr is the run's processor failure: the one at the earliest
	// local clock (errAt), lowest id (errID) among ties (see failProc).
	procErr error
	errAt   int64
	errID   int

	runs uint64 // completed Run calls, mixed into the per-run reseed
}

// shutdown unwinds every still-live program at the end of a Run: each
// coroutine is stopped (its parked yield reports false and the program
// unwinds through errStopped). stop is synchronous, so the coroutine
// has fully unwound — panic recovery and epilogue included — when it
// returns, and stopping an already finished coroutine is a no-op; a
// failed Run never leaks a parked program into the caller's world (or
// into this machine's next Run). A RunScript's Script is dropped too,
// and so is the last answer's pointer into the message slab, and so
// are the operations and the open runs a failed Run left with a
// program.
//
//hot:cold per-Run epilogue
func (m *Machine) shutdown() {
	for _, p := range m.procs {
		if p != nil && p.stop != nil {
			p.stop()
			if p.dlen != 0 {
				clear(m.deferred[p.id*deferCap:][:deferCap])
			}
			m.openRuns[p.id] = procRun{}
		}
	}
	m.script = nil
	m.ansMsg = nil
}

// NewMachine builds a machine with the given parameters, which must
// Validate; invalid parameters panic, since they indicate a programming
// error in the experiment setup rather than a runtime condition. The
// panic message is exactly the Params.Validate error for the same
// parameters, prefixed "logp: NewMachine:". A DeliveryPolicy or
// AcceptOrder outside the declared constants panics the same way,
// naming the value.
func NewMachine(params Params, opts ...Option) *Machine {
	if err := params.Validate(); err != nil {
		panic("logp: NewMachine: " + strings.TrimPrefix(err.Error(), "logp: "))
	}
	m := &Machine{params: params, policy: DeliverMaxLatency, seed: 1}
	for _, o := range opts {
		o(m)
	}
	if m.policy > DeliverRandom {
		panic(fmt.Sprintf("logp: NewMachine: unknown delivery policy %v", m.policy))
	}
	if m.acceptOrder > AcceptRandom {
		panic(fmt.Sprintf("logp: NewMachine: unknown accept order %v", m.acceptOrder))
	}
	return m
}

// Params returns the machine parameters.
func (m *Machine) Params() Params { return m.params }

// SetSeed re-seeds the machine as if it had been built with
// WithSeed(seed): the run counter restarts, so the next Run samples
// exactly the execution a fresh machine's first Run would. It exists
// so that experiment loops sweeping seeds can reuse one machine's
// processor pool, slabs, and heaps across trials instead of building
// a machine per seed.
func (m *Machine) SetSeed(seed uint64) {
	m.seed = seed
	m.runs = 0
}

// errStopped is panicked into program coroutines when the engine shuts
// down, unwinding them cleanly.
var errStopped = errors.New("logp: machine stopped")

func isStopped(r interface{}) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errStopped)
}

// sequence adapts prog to an iter.Pull coroutine. The engine's next()
// resumes the program until it crosses: its batch fills, or a call
// needs the engine's answer (see proc.Now and proc.call), which it
// then reads from m.ansMsg, m.ansOK and m.ansN. A program that returns
// or panics cannot cross, so the epilogue pushes ScriptHalt itself,
// behind the operations issued before it, with the panic in p.err. A
// coroutine unwound by stop() returns through the errStopped arm
// without recording anything.
func (p *proc) sequence(prog Program) iter.Seq[token] {
	return func(yield func(token) bool) {
		p.yield = yield
		defer func() {
			switch r := recover(); {
			case r == nil:
				p.push(ScriptOp{Kind: ScriptHalt})
			case isStopped(r):
				// Unwound by shutdown; the engine no longer reads.
			default:
				p.push(ScriptOp{Kind: ScriptHalt})
				p.err = fmt.Errorf("logp: processor %d panicked: %v", p.id, r)
			}
		}()
		prog(p)
	}
}

// Run executes prog on every processor and returns the measured
// Result. Run may be called repeatedly; the i-th call re-seeds from
// (seed, i) per the WithSeed determinism contract, so repeated trials
// under DeliverRandom or AcceptRandom sample distinct admissible
// executions while remaining reproducible from the machine seed. A
// processor that panics halts; the rest of the machine runs on, and
// the error names the panic at the earliest local clock, lowest id
// among ties.
func (m *Machine) Run(prog Program) (Result, error) {
	return m.run(prog, nil)
}

// run is the one processor lifecycle behind Run and RunScript: exactly
// one of prog and s is non-nil. Processors start one at a time in id
// order, so that the code before each one's first engine operation is
// serialized like everything else; a Program's processors each get a
// coroutine, and a Script's passive ones become templates (see
// lazy.go). The commit loop then interleaves instants and operations,
// and a halted processor of either form is recycled (maybeRecycle).
//
//hot:path entry to the per-event engines; setup/epilogue callees are //hot:cold
func (m *Machine) run(prog Program, s Script) (Result, error) {
	m.script = s
	m.reset()
	defer m.shutdown()

	m.start(prog)
	if err := m.commitLoop(); err != nil {
		return Result{}, err
	}
	return m.finishRun()
}

// finishRun drains in-flight deliveries (so LastDelivery and
// buffer-depth statistics reflect the whole execution) and assembles
// the Result.
//
//hot:cold per-Run epilogue: the Result assembly may allocate
func (m *Machine) finishRun() (Result, error) {
	for m.events.len() > 0 {
		m.processInstant(m.events.minTime())
	}
	addSimEvents(m.simEvents)

	res := Result{
		LastDelivery:   m.lastDelivery,
		MessagesSent:   m.totalMsgs,
		StallEvents:    m.stallEvents,
		MaxBufferDepth: m.maxBuf,
		StallCycles:    m.doneStall,
		ProcTimes:      make([]int64, m.params.P),
	}
	for i, p := range m.procs {
		t := int64(0)
		if p != nil {
			t = p.clock
			res.StallCycles += p.stallCycles
		} else {
			t = m.procTimes[i] // recycled after halting
		}
		res.ProcTimes[i] = t
		if t > res.Time {
			res.Time = t
		}
	}
	if m.auditor != nil {
		// A panicked processor strands messages mid-lifecycle; audit
		// only runs that completed, so the summary reflects the model,
		// not the crash.
		if m.procErr == nil {
			finishRunAudit(m.auditor, res)
		}
		m.auditor = nil
	}
	if m.procErr != nil {
		return res, m.procErr
	}
	if m.strictStallFree && m.stallEvents > 0 {
		return res, fmt.Errorf("logp: execution stalled %d times under WithStrictStallFree", m.stallEvents)
	}
	return res, nil
}

// start materializes the active processors in id order and runs each
// to its first engine operation.
//
//hot:cold per-Run startup: coroutine launch may allocate
func (m *Machine) start(prog Program) {
	for i := 0; i < m.params.P; i++ {
		if m.script != nil && !m.script.Active(i) {
			m.templateCount++
			continue
		}
		p := m.ensureProc(i)
		p.reinit()
		if prog != nil {
			p.next, p.stop = iter.Pull(p.sequence(prog))
		}
		m.await(p, &noMsg, false, 0)
		if p.state == stateReady {
			m.pushReady(p)
		}
	}
}

// commitLoop is the sequential scheduler's main loop, shared by the
// Program and Script forms: commit medium instants in time order and
// processor operations in (clock, id) order until every processor is
// done or nothing can make progress.
//
//hot:path the sequential engine's per-event commit loop
func (m *Machine) commitLoop() error {
	for {
		horizon := int64(math.MaxInt64)
		if m.ready.Len() > 0 {
			horizon = m.ready.Min().At
		}
		if m.events.len() > 0 && m.events.minTime() <= horizon {
			m.processInstant(m.events.minTime())
			continue
		}
		if m.ready.Len() == 0 {
			if m.templateCount > 0 {
				// Nothing can deliver to the remaining passive scripted
				// processors anymore; run their prefixes as the dense
				// startup sweep would have, then re-judge completion.
				m.finalizeTemplates()
				continue
			}
			if m.allDone() {
				return nil
			}
			if m.procErr != nil {
				// A processor panic often strands its peers on
				// Recv; report the root cause, not the symptom.
				return m.procErr
			}
			return m.deadlockError()
		}
		// Run the minimum-(clock, id) processor, and keep running
		// whichever processor is the scheduler's next choice without
		// returning to the outer loop: consecutive operations of one
		// processor skip the ready queue entirely, and only a handover
		// to another ready processor pops it and re-parks the current
		// one.
		p := m.popReady()
		for {
			m.exec(p)
			if p.state != stateReady {
				break
			}
			if m.events.len() > 0 && m.events.minTime() <= p.clock {
				m.pushReady(p)
				break
			}
			if m.ready.Len() > 0 && m.ready.Min().Before(readyKey(p)) {
				next := m.popReady()
				m.pushReady(p)
				p = next
			}
		}
	}
}

// reset prepares the machine for one Run: every steady-state buffer the
// hot loops index into is (re)sized here.
//
//hot:cold per-Run setup owns all steady-state allocation
func (m *Machine) reset() {
	p := m.params.P
	// Mix the run counter into the seed (golden-ratio stride, as in
	// SplitMix64 seeding) so run i is a deterministic function of
	// (seed, i) and run 0 keeps the plain seed.
	if m.rng == nil {
		m.rng = stats.NewRNG(m.seed + m.runs*0x9e3779b97f4a7c15)
	} else {
		m.rng.Reseed(m.seed + m.runs*0x9e3779b97f4a7c15)
	}
	m.runs++
	m.capacity = m.params.Capacity()
	// Processor records are materialized on demand (ensureProc) out of
	// the arena: resetting it wholesale makes every record of the
	// previous run reusable without freeing anything, so a warm
	// machine's startup sweep re-hands the same chunk memory in the
	// same order. The recycle freelist is emptied with it — its
	// entries point into the arena being reset.
	if len(m.procs) != p {
		m.procs = make([]*proc, p)
	} else {
		clear(m.procs)
	}
	m.procFree = m.procFree[:0]
	m.arena.reset()
	m.startedBits = reuseWords(m.startedBits, (p+63)/64)
	m.templateCount = 0
	m.doneCount = 0
	m.doneStall = 0
	// Eager, not lazy-on-first-recycle: the first halted-processor
	// delivery must not be the event that pays for the map (the
	// allocdiscipline analyzer rejects the lazy form on the hot path).
	if m.doneBufLen == nil {
		m.doneBufLen = make(map[int]int)
	} else {
		clear(m.doneBufLen)
	}
	// procTimes retires recycled processors' clocks; size it here so
	// maybeRecycle never allocates mid-run.
	if len(m.procTimes) != p {
		m.procTimes = make([]int64, p)
	}
	if m.script == nil && len(m.deferred) != p*deferCap {
		m.deferred = make([]ScriptOp, p*deferCap)
		m.openRuns = make([]procRun, p)
	}
	m.events.reset(m.params.L)
	m.ready.Reset()
	if len(m.pendingQ) == p {
		for i := range m.pendingQ {
			m.pendingQ[i] = m.pendingQ[i][:0]
		}
	} else {
		m.pendingQ = make([][]int32, p)
	}
	if len(m.inTransit) == p {
		for i := range m.inTransit {
			m.inTransit[i] = 0
		}
	} else {
		m.inTransit = make([]int64, p)
	}
	// Zero before truncating so Body references from a previous run's
	// unfinished messages do not outlive it in the slab's capacity.
	for i := range m.recSlab {
		m.recSlab[i] = msgRec{}
	}
	m.recSlab = m.recSlab[:0]
	m.recFree = -1

	// Ring bitsets: one window of W instants per destination, W being
	// the event wheel's power-of-two size (a multiple of 64), laid out
	// as a single flat word slice reused across runs.
	m.slotMask = m.events.mask
	m.slotWords = int(m.events.mask+1) / 64
	if need := p * m.slotWords; cap(m.slotBits) >= need {
		m.slotBits = m.slotBits[:need]
		for i := range m.slotBits {
			m.slotBits[i] = 0
		}
	} else {
		m.slotBits = make([]uint64, need)
	}
	m.procWords = (p + 63) / 64
	m.dirtyBits = reuseWords(m.dirtyBits, m.procWords)
	m.wakeSendBits = reuseWords(m.wakeSendBits, m.procWords)
	m.wakeRecvBits = reuseWords(m.wakeRecvBits, m.procWords)

	m.lastDelivery = 0
	m.maxBuf = 0
	m.totalMsgs = 0
	m.stallEvents = 0
	m.simEvents = 0
	m.procErr = nil
	m.auditor = newRunAuditor(m.params)
	m.emitOn = m.auditor != nil || m.eventLog != nil
}

// slotTaken reports whether delivery instant d is reserved at dst.
func (m *Machine) slotTaken(dst int, d int64) bool {
	idx := int(d & m.slotMask)
	return m.slotBits[dst*m.slotWords+idx>>6]&(1<<uint(idx&63)) != 0
}

// reserveSlot marks delivery instant d as reserved at dst.
func (m *Machine) reserveSlot(dst int, d int64) {
	idx := int(d & m.slotMask)
	m.slotBits[dst*m.slotWords+idx>>6] |= 1 << uint(idx&63)
}

// releaseSlot clears the reservation for instant d at dst.
func (m *Machine) releaseSlot(dst int, d int64) {
	idx := int(d & m.slotMask)
	m.slotBits[dst*m.slotWords+idx>>6] &^= 1 << uint(idx&63)
}

// freeRun returns the free mask of the n instants d, d+1, ..., d+n-1
// at dst, 1 <= n <= 64: bit i is set when instant d+i is not reserved.
// The run straddles at most two ring words, consecutive modulo the ring
// (one word twice when the ring is a single word), so it is one funnel
// shift of the two.
func (m *Machine) freeRun(dst int, d, n int64) uint64 {
	idx := d & m.slotMask
	base := dst * m.slotWords
	w := int(idx >> 6)
	sh := uint(idx & 63)
	taken := m.slotBits[base+w]>>sh | m.slotBits[base+(w+1)&(m.slotWords-1)]<<(64-sh)
	return ^taken & (^uint64(0) >> (64 - uint(n)))
}

// nthSetBit returns the position of the set bit of rank r (0-based,
// counted from the least significant bit) in x, which must have more
// than r set bits.
func nthSetBit(x uint64, r int) int {
	for ; r > 0; r-- {
		x &= x - 1
	}
	return bits.TrailingZeros64(x)
}

// emit hands ev to the run's auditor and then to the installed event
// sink, in commit order. Callers check m.emitOn first, so a run with
// neither builds no Event.
func (m *Machine) emit(ev Event) {
	if m.auditor != nil {
		m.auditor.Observe(ev)
	}
	if m.eventLog != nil {
		m.eventLog(ev)
	}
}

// newRec returns the index of a zeroed slab record for the caller to
// fill in place, reusing a free-listed record when one exists (freed
// records are zeroed on their way to the free list).
func (m *Machine) newRec() int32 {
	if i := m.recFree; i >= 0 {
		m.recFree = m.recSlab[i].next
		m.recSlab[i].next = -1
		return i
	}
	m.recSlab = append(m.recSlab, msgRec{next: -1})
	return int32(len(m.recSlab) - 1)
}

// appendBuf links the delivered record idx onto p's input FIFO.
func (m *Machine) appendBuf(p *proc, idx int32) {
	m.recSlab[idx].next = -1
	if p.bufTail >= 0 {
		m.recSlab[p.bufTail].next = idx
	} else {
		p.bufHead = idx
	}
	p.bufTail = idx
	p.bufLen++
}

// popBuf unlinks p's oldest buffered arrival and returns its record,
// which the caller frees (freeRec) once it is done reading it.
func (m *Machine) popBuf(p *proc) int32 {
	i := p.bufHead
	p.bufHead = m.recSlab[i].next
	if p.bufHead < 0 {
		p.bufTail = -1
	}
	p.bufLen--
	return i
}

// freeRec recycles record i. The record is zeroed on its way to the
// free list so a retained Body does not outlive its acquisition.
func (m *Machine) freeRec(i int32) {
	m.recSlab[i] = msgRec{next: m.recFree}
	m.recFree = i
}

func (m *Machine) allDone() bool {
	return m.doneCount == m.params.P
}

//hot:cold failure epilogue: the diagnostic rendering may allocate
func (m *Machine) deadlockError() error {
	var waitMsg, waitAcc []int
	for _, p := range m.procs {
		if p == nil {
			continue // recycled after halting; templates are finalized first
		}
		switch p.state {
		case stateWaitMsg:
			waitMsg = append(waitMsg, p.id)
		case stateWaitAccept:
			waitAcc = append(waitAcc, p.id)
		}
	}
	return fmt.Errorf("logp: deadlock: processors %v blocked on Recv, %v blocked on Send, no messages in flight", waitMsg, waitAcc)
}

// await answers p's last operation — the acquired message (&noMsg when
// there is none), the TryRecv outcome in ok, the Buffered count in n —
// and brings p to its next engine operation, which it parks in
// p.pending. A Script gets the answer as its Next argument (see
// scriptSegment); a Program gets it through resume. The Compute and
// WaitUntil calls resolved without exec since p last parked are folded
// into simEvents here, preserving the per-op accounting of the
// serialized engine. A halt ends the processor, failing the run first
// if it halted by panicking, and recycles its record.
func (m *Machine) await(p *proc, msg *Message, ok bool, n int64) {
	if p.next == nil {
		p.scriptSegment(msg, ok, n)
	} else {
		m.resume(p, msg, ok, n)
	}
	if p.localOps != 0 {
		m.simEvents += p.localOps
		p.localOps = 0
	}
	if p.pending.Kind != ScriptHalt {
		p.state = stateReady
		return
	}
	if p.err != nil {
		m.failProc(p, p.err)
	}
	p.state = stateDone
	m.doneCount++
	m.maybeRecycle(p)
}

// resume brings a Program to its next engine operation: the next one
// in its batch. Only a spent batch resumes the coroutine, which reads
// the answer to the batch's last operation — the only one that can need
// one — from m.ansMsg, m.ansOK and m.ansN, the message in place; every
// earlier answer is a Send's, which carries nothing. Compute and
// WaitUntil are applied to the clock as the program side applies them
// with an empty batch; any other operation is parked for exec. So each
// operation is performed alone, at the point of the commit loop where
// an unbatched program would have issued it.
//
// The runs in m.openRuns are loops that issue nothing between their
// operations, so resume issues each operation in the loop's place: a
// SendFrom's batch entry parks its run's Sends one at a time before the
// batch goes on, and a batch that ends in a RecvInto's Recv or a
// TryRecvInto's Buffered is spent only once that loop would stop (see
// recvRun), answering with the number of messages it stored.
func (m *Machine) resume(p *proc, msg *Message, ok bool, n int64) {
	run := &m.openRuns[p.id]
	if run.sent != 0 {
		if run.sent < len(run.send) {
			m.parkRunSend(p, run)
			return
		}
		run.send, run.sent = nil, 0
	}
	if p.dlen == 0 {
		if run.recv != nil {
			if m.recvRun(p, run, msg, ok, n) {
				return
			}
			msg, ok, n = &noMsg, false, int64(run.n)
			run.recv, run.n = nil, 0
		}
		m.ansMsg, m.ansOK, m.ansN = msg, ok, n
		p.next()
	}
	batch := m.deferred[p.id*deferCap:][:deferCap]
	for {
		op := &batch[p.dhead]
		if p.dhead++; p.dhead == p.dlen {
			p.dhead, p.dlen = 0, 0
		}
		switch op.Kind {
		case ScriptCompute:
			p.clock += op.N
		case ScriptWait:
			p.clock = max(p.clock, op.N)
		case scriptSendRun:
			*op = ScriptOp{}
			m.parkRunSend(p, run)
			return
		default:
			p.pending = *op
			*op = ScriptOp{}
			return
		}
		p.localOps++
		if p.dlen == 0 {
			// The batch ended in local work: the program crossed because
			// it filled or Now flushed it, and reads no answer.
			p.next()
		}
	}
}

// parkRunSend parks the next Send of p's SendFrom run.
func (m *Machine) parkRunSend(p *proc, run *procRun) {
	s := &run.send[run.sent]
	run.sent++
	p.pending = ScriptOp{Kind: ScriptSend, Dst: s.Dst, Tag: s.Tag, Payload: s.Payload, Aux: s.Aux, Body: s.Body}
}

// recvRun takes the answer to the operation of p's receive run that
// exec just performed, the one p.pending still holds, and reports
// whether the run goes on, its next operation parked. A RecvInto
// stores each acquisition and parks its Recv again until dst is full.
// A TryRecvInto goes on from a Buffered to a TryRecv while a message is
// buffered and the clock has not passed until, and from a TryRecv,
// storing what it acquired, to the next Buffered while dst has room.
func (m *Machine) recvRun(p *proc, run *procRun, msg *Message, ok bool, n int64) bool {
	switch p.pending.Kind {
	case ScriptRecv:
		run.recv[run.n] = *msg
		run.n++
		return run.n < len(run.recv)
	case ScriptBuffered:
		if n > 0 && p.clock <= run.until {
			p.pending.Kind = ScriptTryRecv
			return true
		}
	case ScriptTryRecv:
		if ok {
			run.recv[run.n] = *msg
			run.n++
		}
		if run.n < len(run.recv) {
			p.pending.Kind = ScriptBuffered
			return true
		}
	}
	return false
}

// failProc records err, processor p's failure at its current clock, as
// the run's error unless an earlier one is already recorded: the
// earliest failure in simulated time wins, lowest id among ties. The
// order in which the engine observes failures is not that order — a
// program runs ahead of the engine through its local operations before
// it panics — so the report is pinned to the model instead.
func (m *Machine) failProc(p *proc, err error) {
	if m.procErr == nil || p.clock < m.errAt || p.clock == m.errAt && p.id < m.errID {
		m.procErr, m.errAt, m.errID = err, p.clock, p.id
	}
}

// readyKey is p's ready-queue entry: the (clock, id) commit-order key,
// copied out of the proc at push time. The id tie-break reproduces the
// first engine's linear scan, which kept the lowest-id processor among
// clock ties.
func readyKey(p *proc) runq.Ref {
	return runq.Ref{At: p.clock, Tie: int64(p.id), Idx: int32(p.id)}
}

// pushReady queues p as runnable.
func (m *Machine) pushReady(p *proc) {
	m.ready.Push(readyKey(p))
}

// popReady removes and returns the ready processor with the minimum
// (clock, id).
func (m *Machine) popReady() *proc {
	return m.procs[m.ready.PopMin().Idx]
}

// exec performs p's pending operation. p must be the ready processor
// with the minimum local clock, which guarantees that every medium
// event at or before p.clock has been committed. Note that exec does
// not re-enter p into the ready queue; its caller does. The pending
// operation is read in place, not copied.
func (m *Machine) exec(p *proc) {
	m.simEvents++
	switch op := &p.pending; op.Kind {
	case ScriptBuffered:
		n := int64(0)
		for i := p.bufHead; i >= 0; i = m.recSlab[i].next {
			if m.recSlab[i].at > p.clock {
				break
			}
			n++
		}
		m.await(p, &noMsg, false, n)

	case ScriptSend:
		s := p.clock + m.params.O
		if s < p.nextComm {
			s = p.nextComm
		}
		p.nextComm = s + m.params.G
		p.clock = s
		p.state = stateWaitAccept
		m.totalMsgs++
		idx := m.newRec()
		rec := &m.recSlab[idx]
		rec.msg = Message{Src: p.id, Dst: op.Dst, Tag: op.Tag, Payload: op.Payload, Aux: op.Aux, Body: op.Body}
		rec.at = s
		rec.msgID = m.totalMsgs
		if m.emitOn {
			m.emit(Event{Time: s, Kind: EvSubmit, Seq: m.totalMsgs, Msg: rec.msg})
		}
		m.events.push(m.recSlab, s, evSubmission, idx)

	case ScriptRecv:
		if p.bufLen > 0 {
			m.completeRecv(p)
		} else {
			p.state = stateWaitMsg
		}

	case ScriptTryRecv:
		if p.bufLen > 0 && m.recSlab[p.bufHead].at <= p.clock && p.nextComm <= p.clock {
			i := m.popBuf(p)
			head := &m.recSlab[i]
			r := p.clock
			if m.emitOn {
				m.emit(Event{Time: r, Kind: EvAcquire, Seq: head.msgID, Msg: head.msg})
			}
			p.clock = r + m.params.O
			p.nextComm = r + m.params.G
			m.await(p, &head.msg, true, 0)
			m.freeRec(i)
		} else {
			p.clock++ // one polling cycle, so busy-wait loops consume time
			m.await(p, &noMsg, false, 0)
		}

	default:
		panic(fmt.Sprintf("logp: unexpected pending op %d", op.Kind))
	}
}

// completeRecv acquires the oldest buffered message for p and resumes
// its program. The processor reads the message in place, out of its
// record, which is freed only afterwards: a processor never submits
// while it runs (a Send parks for exec), so recSlab cannot grow under
// the pointer.
func (m *Machine) completeRecv(p *proc) {
	i := m.popBuf(p)
	head := &m.recSlab[i]
	r := p.clock
	if head.at > r {
		r = head.at
	}
	if p.nextComm > r {
		r = p.nextComm
	}
	if m.emitOn {
		m.emit(Event{Time: r, Kind: EvAcquire, Seq: head.msgID, Msg: head.msg})
	}
	p.clock = r + m.params.O
	p.nextComm = r + m.params.G
	p.state = stateReady
	m.await(p, &head.msg, true, 0)
	m.freeRec(i)
}

// processInstant commits every medium event scheduled at the earliest
// pending instant t: deliveries free capacity slots and append to input
// buffers, new submissions join their destination queues, and then the
// Stalling Rule acceptance pass runs for each touched destination.
// Processors whose blocking operation completed are woken afterwards in
// id order.
func (m *Machine) processInstant(t int64) {
	capacity := m.capacity

	for m.events.len() > 0 && m.events.minTime() == t {
		ri, kind := m.events.popMin(m.recSlab)
		m.simEvents++
		rec := &m.recSlab[ri]
		dst := rec.msg.Dst
		if kind == evDelivery {
			m.inTransit[dst]--
			m.releaseSlot(dst, t)
			if m.emitOn {
				m.emit(Event{Time: t, Kind: EvDeliver, Seq: rec.msgID, Msg: rec.msg})
			}
			p := m.procs[dst]
			if p == nil && !m.started(dst) {
				// First message for a passive scripted template:
				// materialize it and run its local prefix now
				// (unobservable by the passivity contract), then
				// deliver as usual.
				m.instantiateLazy(dst, t)
				p = m.procs[dst] // nil again if the prefix halted and was recycled
			}
			rec.at = t
			if p == nil {
				// The destination halted and was recycled. Its buffer
				// would only grow from here on; only the depth is
				// observable, so track it in doneBufLen and free the
				// record immediately.
				n := m.doneBufLen[dst] + 1
				m.doneBufLen[dst] = n
				if n > m.maxBuf {
					m.maxBuf = n
				}
				m.freeRec(ri)
			} else {
				m.appendBuf(p, ri)
				if p.bufLen > m.maxBuf {
					m.maxBuf = p.bufLen
				}
			}
			m.lastDelivery = t
			m.dirtyBits[dst>>6] |= 1 << (uint(dst) & 63)
			if p != nil && p.state == stateWaitMsg {
				m.wakeRecvBits[dst>>6] |= 1 << (uint(dst) & 63)
			}
		} else {
			// Insert keeping FIFO order by (subAt, src); rec.at is the
			// submission instant while the record waits for acceptance.
			q := m.pendingQ[dst]
			i := len(q)
			for i > 0 && m.subBefore(ri, q[i-1]) {
				i--
			}
			//lint:ignore hotloop FIFO insert into the retained per-destination pending queue; capacity reaches the in-flight high-water and is reused across instants
			q = append(q, 0)
			copy(q[i+1:], q[i:])
			q[i] = ri
			m.pendingQ[dst] = q
			m.dirtyBits[dst>>6] |= 1 << (uint(dst) & 63)
		}
	}

	for dst := range eachBit(m.dirtyBits) {
		for m.inTransit[dst] < capacity && len(m.pendingQ[dst]) > 0 {
			q := m.pendingQ[dst]
			idx := 0
			switch m.acceptOrder {
			case AcceptLIFO:
				idx = len(q) - 1
			case AcceptRandom:
				idx = m.rng.Intn(len(q))
			}
			ai := q[idx]
			copy(q[idx:], q[idx+1:])
			m.pendingQ[dst] = q[:len(q)-1]
			sub := &m.recSlab[ai]
			sender := m.procs[sub.msg.Src]
			if t > sub.at {
				sender.stallCycles += t - sub.at
				m.stallEvents++
			}
			d := m.chooseSlot(dst, t)
			m.reserveSlot(dst, d)
			m.inTransit[dst]++
			if m.inTransit[dst] > capacity {
				panic(fmt.Sprintf("logp: capacity constraint violated at destination %d (bug)", dst))
			}
			if m.emitOn {
				m.emit(Event{Time: t, Kind: EvAccept, Seq: sub.msgID, Msg: sub.msg})
			}
			m.events.push(m.recSlab, d, evDelivery, ai)
			sid := sub.msg.Src
			m.wakeSendBits[sid>>6] |= 1 << (uint(sid) & 63)
		}
	}

	for id := range eachBit(m.wakeSendBits) {
		p := m.procs[id]
		p.clock = t // acceptance instant; stall cycles already accounted
		p.state = stateReady
		m.await(p, &noMsg, false, 0)
		if p.state == stateReady {
			m.pushReady(p)
		}
	}

	for id := range eachBit(m.wakeRecvBits) {
		p := m.procs[id]
		if p.state == stateWaitMsg && p.bufLen > 0 {
			m.completeRecv(p)
			if p.state == stateReady {
				m.pushReady(p)
			}
		}
	}
}

// reuseWords returns a zeroed word slice of length n, reusing s's
// backing array when it is large enough.
func reuseWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// eachBit iterates the set bits of a per-processor bitset in ascending
// id order — the order the former sorted wake lists produced — and
// clears each word as it is consumed, leaving the set empty.
func eachBit(words []uint64) func(func(int) bool) {
	//lint:ignore allocdiscipline range-over-func iterator: every inlined use stack-allocates the closure (the steady-state alloc guards pin zero); this is the un-inlined instantiation
	return func(yield func(int) bool) {
		for w := range words {
			word := words[w]
			words[w] = 0
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				if !yield(w<<6 | b) {
					// Restore the unconsumed remainder so the scratch
					// stays consistent on early exit.
					words[w] = word
					return
				}
			}
		}
	}
}

// subBefore orders pending submissions by (submission instant, source
// id), the Stalling Rule's FIFO key.
func (m *Machine) subBefore(a, b int32) bool {
	ra, rb := &m.recSlab[a], &m.recSlab[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.msg.Src < rb.msg.Src
}

// chooseSlot picks a free delivery instant in (a, a+L] for destination
// dst under the configured policy. A free instant always exists because
// the capacity constraint keeps at most Capacity()-1 other messages in
// transit and Capacity() <= L. The lookups read the destination's ring
// bitset, so no allocation or hashing happens on this path.
// DeliverRandom reads the window 64 instants at a time; its one
// Reservoir call draws exactly what one Intn per free instant in
// ascending order would, so seeded executions do not depend on how the
// window is scanned.
func (m *Machine) chooseSlot(dst int, a int64) int64 {
	L := m.params.L
	switch m.policy {
	case DeliverMinLatency:
		for d := a + 1; d <= a+L; d++ {
			if !m.slotTaken(dst, d) {
				return d
			}
		}
	case DeliverMaxLatency:
		for d := a + L; d > a; d-- {
			if !m.slotTaken(dst, d) {
				return d
			}
		}
	case DeliverRandom:
		// A reservoir of one over the free instants: count them, draw
		// the winner's rank, and find the free instant of that rank.
		free := 0
		for off := int64(0); off < L; off += 64 {
			free += bits.OnesCount64(m.freeRun(dst, a+1+off, min(64, L-off)))
		}
		if free > 0 {
			rank := m.rng.Reservoir(free)
			for off := int64(0); ; off += 64 {
				run := m.freeRun(dst, a+1+off, min(64, L-off))
				if c := bits.OnesCount64(run); rank >= c {
					rank -= c
					continue
				}
				return a + 1 + off + int64(nthSetBit(run, rank))
			}
		}
	}
	panic(fmt.Sprintf("logp: no free delivery slot for destination %d at time %d (capacity accounting bug)", dst, a))
}
