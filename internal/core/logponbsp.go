package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/bsp"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/runq"
)

// LogPOnBSP executes LogP programs under BSP cost semantics, following
// the simulation of Theorem 1: the LogP computation is cut into cycles
// of CycleLen (the paper uses L/2) consecutive time units; each cycle
// becomes one BSP superstep in which processor i replays processor i's
// instructions, message submissions are gathered into the output pool,
// and everything submitted in cycle k is available at its destination
// at the start of cycle k+1.
//
// For a stall-free program every cycle routes an h-relation with
// h <= ceil(L/G), so the superstep costs CycleLen + g*h + l and the
// slowdown is O(1 + g/G + l/L). Cycles that exceed the capacity bound
// certify that the program is not stall-free; for those, ExtensionTime
// additionally charges the sorting-based preprocessing the paper
// sketches at the end of Section 3 (O(log p) sorting supersteps plus
// capacity-bounded delivery supersteps).
type LogPOnBSP struct {
	// LogP holds the parameters of the simulated (guest) machine.
	LogP logp.Params
	// BSP holds the parameters of the host machine. The zero value
	// selects matched parameters g = G, l = L.
	BSP bsp.Params
	// CycleLen is the number of LogP time units replayed per
	// superstep, at most L; 0 selects the paper's L/2.
	CycleLen int64
	// Fold simulates the p LogP processors on a BSP host with only
	// p/Fold processors, each replaying Fold guests per superstep —
	// the work-preserving variant the paper's footnote 1 credits to
	// Ramachandran et al. 0 or 1 selects the direct simulation. Fold
	// must divide P.
	Fold int

	// eng is the reusable replay engine: its slabs persist across Run
	// and RunScript calls and are reset wholesale (see cycleEngine).
	eng *cycleEngine
}

// Thm1Result reports the cost of a LogPOnBSP execution.
type Thm1Result struct {
	// BSPTime is the total BSP time sum(CycleLen + g*h_k + l).
	BSPTime int64
	// ExtensionTime equals BSPTime if the program is stall-free;
	// otherwise overloaded cycles are charged the sorting-based
	// extension instead of a direct h-relation.
	ExtensionTime int64
	// GuestTime is the LogP time replayed (max processor clock,
	// including in-flight deliveries).
	GuestTime int64
	// Cycles is the number of supersteps executed.
	Cycles int64
	// MessagesSent counts all submissions.
	MessagesSent int64
	// MaxCycleH is the largest per-cycle relation degree.
	MaxCycleH int64
	// CapacityViolations counts cycles whose relation exceeded
	// ceil(L/G), certifying a non-stall-free program.
	CapacityViolations int64
	// CycleH holds the relation degree of every cycle.
	CycleH []int64
}

// Slowdown returns BSPTime normalized by the guest LogP time actually
// replayed. Under Theorem 1's premises this is O(1 + g/G + l/L) for
// the direct simulation and O(Fold * (1 + g/G + l/L)) when folding.
func (r Thm1Result) Slowdown() float64 {
	if r.GuestTime == 0 {
		return 1
	}
	return float64(r.BSPTime) / float64(r.GuestTime)
}

func (s *LogPOnBSP) params() (logp.Params, bsp.Params, int64, int) {
	lp := s.LogP
	fold := s.Fold
	if fold < 1 {
		fold = 1
	}
	bp := s.BSP
	if bp.P == 0 {
		g, l := matchedParams(lp)
		bp = bsp.Params{P: lp.P / fold, G: g, L: l}
	}
	cl := s.CycleLen
	if cl == 0 {
		cl = lp.L / 2
	}
	if cl < 1 {
		cl = 1
	}
	return lp, bp, cl, fold
}

// Run executes prog under the Theorem 1 construction and returns the
// accumulated BSP cost. The replay is deterministic: within a cycle
// processors are interleaved by local clock, and every message
// submitted in cycle k is delivered at the start of cycle k+1 in
// submission order, which is one of the admissible LogP executions for
// a stall-free program.
//
// Run and RunScript may be called repeatedly on one LogPOnBSP: the
// replay engine's slabs (guest records, message records, count
// columns, run queues) are retained across calls and reset wholesale,
// so a warm simulator replays with near-zero steady-state allocation.
// A LogPOnBSP is therefore not safe for concurrent use.
//
// The engine executes Scripts only: Run drives prog through
// logp.ProgramAsScript, and the programs a failed replay leaves parked
// are unwound before Run returns.
func (s *LogPOnBSP) Run(prog logp.Program) (Thm1Result, error) {
	sc := logp.ProgramAsScript(s.LogP, prog)
	defer sc.Stop()
	return s.RunScript(sc)
}

// RunScript executes a logp.Script under the same Theorem 1
// construction. Every guest is an explicit state machine rather than a
// parked coroutine, so the replay fits at p = 10^6: per guest the
// engine holds one small guest record and no goroutine stack.
// Script.Active is ignored here — every guest is started eagerly, which
// by the passivity contract is indistinguishable from lazy
// instantiation — and the replayed cost is identical to
// Run(logp.ScriptAsProgram(s)).
func (s *LogPOnBSP) RunScript(sc logp.Script) (Thm1Result, error) {
	lp, bp, cycleLen, fold := s.params()
	if err := lp.Validate(); err != nil {
		return Thm1Result{}, err
	}
	// A cycle longer than L would hold deliveries past the latency
	// bound, which no admissible LogP execution does.
	if s.CycleLen < 0 || s.CycleLen > lp.L {
		return Thm1Result{}, fmt.Errorf("core: cycle length %d outside [0, L = %d] (0 selects L/2)", s.CycleLen, lp.L)
	}
	if s.Fold < 0 {
		return Thm1Result{}, fmt.Errorf("core: negative folding factor %d (0 or 1 selects the direct simulation)", s.Fold)
	}
	if err := bp.Validate(); err != nil {
		return Thm1Result{}, err
	}
	if lp.P%fold != 0 {
		return Thm1Result{}, fmt.Errorf("core: folding factor %d does not divide p = %d", fold, lp.P)
	}
	if bp.P != lp.P/fold {
		return Thm1Result{}, fmt.Errorf("core: BSP host has %d processors, need %d (p/fold)", bp.P, lp.P/fold)
	}
	if s.eng == nil {
		s.eng = &cycleEngine{}
	}
	eng := s.eng
	// The executed stalling extension needs an overloaded cycle's message
	// pairs; it only runs for the unfolded power-of-two replay, so pairs
	// are retained only there, and only for overloaded cycles.
	eng.reset(lp, cycleLen, fold, fold == 1 && isPow2(lp.P))
	defer eng.shutdown()
	eng.start(sc)
	if err := eng.loop(); err != nil {
		return Thm1Result{}, err
	}
	return eng.result(bp), nil
}

// cycleEngine replays a LogP program with per-cycle bookkeeping. It runs
// the guests on core's shared guest runtime (see guests) with a reduced
// medium: every submission is accepted immediately and delivered at the
// next cycle boundary.
//
// The engine is arena-shaped: every bulk structure is a flat slab that
// a LogPOnBSP retains across runs and reset() makes reusable without
// freeing. The event queue moves 24-byte refs to the guests' message
// records. Per-guest fan-in/out counts are flat int32 columns in a
// fixed ring of ⌊G/CycleLen⌋ + 2 slots, which holds every cycle that
// can still be counted (see reset). The per-cycle aggregates
// result() needs — the relation degree and the overload flag — are
// folded in incrementally at submission time, and message pairs are
// kept only for overloaded cycles, recovered from the in-flight records
// when a cycle first exceeds capacity (see recoverPairs), so a
// stall-free replay keeps none. Runnable guests and in-flight messages
// sit in monotone run queues of value refs (see runq.Queue): replaying
// a ring and a broadcast at p = 32,768, 97.3% of pushes are O(1) ring
// appends that chase no pointers, and the rest extend one sorted side
// run, so no step sifts a heap. Together these keep a p = 10^6 replay's cost proportional
// to its traffic, not to p times its length, with near-zero
// steady-state allocation on a warm simulator.
type cycleEngine struct {
	guests

	cycleLen int64
	fold     int
	capacity int64 // lp.Capacity(), cached off the per-send path

	// ready and events are monotone: each pops in nondecreasing key
	// order, and every push is at or after its last popped key. A guest
	// re-parks at a clock no earlier than the one it was popped at, and
	// a woken guest's clock is at least the delivery instant, which is
	// at most the ready minimum it was delivered under (see loop). A new
	// arrival is later than its submitter's clock, which is at least
	// every instant already delivered.
	events runq.Queue // in-flight messages by (arrival, submission count)

	// ring holds the count columns of the live cycles: cycle k's bundle
	// sits in slot k mod len(ring), tagged with k (see colsFor).
	ring []cycleCols

	maxH     []int64 // per cycle: running relation-degree maximum
	overload []bool  // per cycle: some guest fan-in exceeded capacity

	// keepPairs enables the executed extension's pair retention: msgs
	// holds the message pairs of every overloaded cycle, and only those
	// (see recoverPairs). It stays nil for a stall-free replay.
	keepPairs bool
	msgs      map[int64][]relation.Pair

	// grouping is lent to stallingExtensionTime so replays with many
	// overloaded cycles regroup into one reused backing.
	grouping relation.Grouping

	guestTime int64
}

// cycleCols is one ring slot: the fan-in/out count columns of the
// cycle it is tagged with. rcvd (per guest) always exists — the
// capacity-spreading rule queries it. sent (per guest) exists for the
// direct simulation; sentX/rcvdX (per host) carry the cross-host
// traffic of a folded replay.
type cycleCols struct {
	cycle int64
	rcvd  []int32
	sent  []int32
	sentX []int32
	rcvdX []int32
}

// reset prepares the retained engine for a fresh replay with the given
// shape. The guest runtime resets its slabs in place. The count ring
// keeps its columns, untagged, unless the (P, fold) shape or the ring
// size changed. Nothing is freed, so a warm simulator replays with
// near-zero steady-state allocation.
//
// The ring has ⌊G/CycleLen⌋ + 2 slots. A guest's next communication
// slot is never more than G past its clock, and o <= G, so a Send
// committed at clock c is submitted in (c, c+G]. loop commits in
// nondecreasing clock order, so every later submission lands in a
// cycle at or above ⌊c/CycleLen⌋, while the submissions so far reach
// at most ⌊(c+G)/CycleLen⌋: at most ⌊G/CycleLen⌋ + 2 cycles are live.
//
//hot:cold per-Run setup owns all steady-state allocation
func (e *cycleEngine) reset(lp logp.Params, cycleLen int64, fold int, keepPairs bool) {
	sameShape := e.lp.P == lp.P && e.fold == fold
	e.guests.reset(lp)
	e.cycleLen = cycleLen
	e.fold = fold
	e.capacity = lp.Capacity()
	e.events.Reset()
	if slots := int(lp.G/cycleLen) + 2; !sameShape || len(e.ring) != slots {
		e.ring = make([]cycleCols, slots)
	}
	for i := range e.ring {
		e.ring[i].cycle = -1
	}
	e.maxH = e.maxH[:0]
	e.overload = e.overload[:0]
	e.keepPairs = keepPairs
	e.msgs = nil
	e.guestTime = 0
}

// loop is the replay's commit loop. It commits the runnable guest with
// the smallest clock, lowest id on ties, after delivering every instant
// up to that clock. Delivered instants are therefore at most every
// later committer's clock: a guest woken at instant t resumes at a
// clock of at least t.
//
//hot:path the Theorem 1 cycle engine's per-event commit loop
func (e *cycleEngine) loop() error {
	for {
		horizon := int64(math.MaxInt64)
		if e.ready.Len() > 0 {
			horizon = e.ready.Min().At
		}
		if e.events.Len() > 0 {
			if t := e.events.Min().At; t <= horizon {
				e.deliverInstant(t)
				continue
			}
		}
		if e.ready.Len() == 0 {
			if e.halted == len(e.procs) {
				break
			}
			if e.procErr != nil {
				return e.procErr
			}
			return e.deadlockError()
		}
		p := &e.procs[e.ready.PopMin().Idx]
		if p.pending.Kind == logp.ScriptSend {
			e.send(p)
		} else {
			e.exec(p)
		}
	}

	for e.events.Len() > 0 {
		e.deliverInstant(e.events.Min().At)
	}
	for i := range e.procs {
		if c := e.procs[i].clock; c > e.guestTime {
			e.guestTime = c
		}
	}
	return e.procErr
}

// deadlockError renders the replay's deadlock diagnostic, off the hot
// path so the commit loop itself stays allocation-free.
//
//hot:cold failure epilogue: the diagnostic rendering may allocate
func (e *cycleEngine) deadlockError() error {
	return fmt.Errorf("core: deadlock in Theorem 1 replay: processors %v blocked on Recv", e.blocked())
}

// ensureCycle grows the per-cycle aggregate arrays (O(cycles) total,
// the same order as the CycleH slice result() returns).
func (e *cycleEngine) ensureCycle(cycle int64) {
	for int64(len(e.maxH)) <= cycle {
		//lint:ignore hotloop per-cycle aggregate growth: O(cycles) appends per run, not per event
		e.maxH = append(e.maxH, 0)
		//lint:ignore hotloop per-cycle aggregate growth: O(cycles) appends per run, not per event
		e.overload = append(e.overload, false)
	}
}

func (e *cycleEngine) noteH(cycle, c int64) {
	if c > e.maxH[cycle] {
		e.maxH[cycle] = c
	}
}

// colsFor returns cycle's count columns, from ring slot cycle mod
// len(ring). The first submission of a cycle takes the slot over from
// the older cycle it held, which no later submission can reach (see
// reset), and zeroes its columns.
func (e *cycleEngine) colsFor(cycle int64) *cycleCols {
	c := &e.ring[cycle%int64(len(e.ring))]
	if c.cycle != cycle {
		if c.cycle > cycle {
			panic(fmt.Sprintf("core: count slot of cycle %d still holds cycle %d (bug)", cycle, c.cycle))
		}
		if c.rcvd == nil {
			e.allocCols(c)
		} else {
			clear(c.rcvd)
			clear(c.sent)
			clear(c.sentX)
			clear(c.rcvdX)
		}
		c.cycle = cycle
	}
	return c
}

// allocCols sizes an empty ring slot's columns for the current (P,
// fold) shape.
//
//hot:cold once per ring slot and shape: the steady state reuses the columns
func (e *cycleEngine) allocCols(c *cycleCols) {
	c.rcvd = make([]int32, e.lp.P)
	if e.fold == 1 {
		c.sent = make([]int32, e.lp.P)
	} else {
		hostP := e.lp.P / e.fold
		c.sentX = make([]int32, hostP)
		c.rcvdX = make([]int32, hostP)
	}
}

// countSend folds one submission from src to dst into the per-cycle
// statistics: the cycle's count columns c, its running relation-degree
// maximum, and its overload flag. Counts only grow, so taking the
// maximum of every intermediate value equals the maximum of the final
// per-guest counts.
func (e *cycleEngine) countSend(c *cycleCols, cycle int64, src, dst int) {
	e.ensureCycle(cycle)
	c.rcvd[dst]++
	in := int64(c.rcvd[dst])
	if in > e.capacity && !e.overload[cycle] {
		e.overload[cycle] = true
		if e.keepPairs {
			e.recoverPairs(cycle)
		}
	}
	if e.fold == 1 {
		c.sent[src]++
		e.noteH(cycle, int64(c.sent[src]))
		e.noteH(cycle, in)
	} else if src/e.fold != dst/e.fold {
		// Folded hosts route the cross-host traffic of all their
		// guests; only that traffic contributes to the host relation.
		c.sentX[src/e.fold]++
		e.noteH(cycle, int64(c.sentX[src/e.fold]))
		c.rcvdX[dst/e.fold]++
		e.noteH(cycle, int64(c.rcvdX[dst/e.fold]))
	}
	if e.keepPairs && e.overload[cycle] {
		e.msgs[cycle] = append(e.msgs[cycle], relation.Pair{Src: src, Dst: dst})
	}
}

// recoverPairs starts pair retention for cycle, whose fan-in has just
// exceeded capacity: it gathers the pairs of cycle's earlier
// submissions, in submission order, before countSend appends the
// current one. Every such submission is still in flight. Its arrival is
// at least cycle's end boundary, while the committing guest's clock
// lies inside cycle, and loop never delivers an instant past the
// committer's clock. So the event queue's records hold them all.
//
//hot:cold runs once per overloaded cycle; a stall-free replay never reaches it
func (e *cycleEngine) recoverPairs(cycle int64) {
	inCycle := slices.DeleteFunc(e.events.AppendAll(nil), func(ref runq.Ref) bool {
		return e.recs[ref.Idx].cycle != int32(cycle)
	})
	slices.SortFunc(inCycle, func(a, b runq.Ref) int { return cmp.Compare(a.Tie, b.Tie) })
	pairs := make([]relation.Pair, len(inCycle))
	for i, ref := range inCycle {
		m := &e.recs[ref.Idx].msg
		pairs[i] = relation.Pair{Src: m.Src, Dst: m.Dst}
	}
	if e.msgs == nil {
		e.msgs = make(map[int64][]relation.Pair)
	}
	e.msgs[cycle] = pairs
}

// send commits p's pending Send: the medium accepts the submission at
// once and schedules its arrival at the next cycle boundary.
func (e *cycleEngine) send(p *guest) {
	s, idx := e.submit(p)
	cycle := s / e.cycleLen
	arrival := (cycle + 1) * e.cycleLen
	dst := p.pending.Dst
	c := e.colsFor(cycle)
	// Deliveries beyond the destination's capacity are spread at one
	// per G past the boundary, mirroring an admissible stalling-rule
	// execution (FIFO acceptance): for a stall-free cycle nothing
	// changes, while a hot spot's excess messages arrive in later
	// cycles instead of all at once.
	if prior := int64(c.rcvd[dst]); prior >= e.capacity {
		arrival += (prior - e.capacity + 1) * e.lp.G
	}
	e.countSend(c, cycle, p.id, dst)
	e.recs[idx].cycle = int32(cycle)
	e.events.Push(runq.Ref{At: arrival, Tie: e.sent, Idx: idx})
	if arrival > e.guestTime {
		e.guestTime = arrival
	}
	e.await(p, &noMsg, false, 0)
}

// deliverInstant delivers every message arriving at instant t, then
// wakes the guests they unblock.
func (e *cycleEngine) deliverInstant(t int64) {
	for e.events.Len() > 0 && e.events.Min().At == t {
		e.arrive(e.events.PopMin().Idx, t)
	}
	e.wakeAll()
}

// result folds the per-cycle aggregates into a Thm1Result.
//
//hot:cold per-Run epilogue
func (e *cycleEngine) result(bp bsp.Params) Thm1Result {
	res := Thm1Result{GuestTime: e.guestTime, MessagesSent: e.sent}
	if e.guestTime == 0 {
		return res
	}
	capacity := e.lp.Capacity()
	cycles := ceilDiv(e.guestTime, e.cycleLen)
	res.Cycles = cycles
	res.CycleH = make([]int64, cycles)
	lgp := int64(log2Ceil(e.lp.P))
	if lgp < 1 {
		lgp = 1
	}
	work := e.cycleLen * int64(e.fold)
	for k := int64(0); k < cycles; k++ {
		var h int64
		overloaded := false
		if k < int64(len(e.maxH)) {
			h = e.maxH[k]
			overloaded = e.overload[k]
		}
		res.CycleH[k] = h
		res.MaxCycleH = maxI64(res.MaxCycleH, h)
		base := work + bp.G*h + bp.L
		res.BSPTime += base
		if overloaded {
			res.CapacityViolations++
			// Stalling extension (end of Section 3): assign the
			// cycle's messages an acceptance order consistent with
			// the stalling rule. When the bitonic schedule applies,
			// the preprocessing runs as a real BSP program and its
			// measured time is charged; otherwise the closed-form
			// O(log p)-supersteps charge is used.
			if e.keepPairs {
				rel := relation.Relation{P: e.lp.P, Pairs: e.msgs[k]}
				res.ExtensionTime += work + stallingExtensionTime(bp, rel, &e.grouping, capacity, e.lp.G)
			} else {
				res.ExtensionTime += work + extensionFormula(bp, h, capacity, lgp)
			}
		} else {
			res.ExtensionTime += base
		}
	}
	return res
}
