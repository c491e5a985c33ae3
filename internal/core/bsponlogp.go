package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Router selects the h-relation routing protocol used to realize each
// superstep's communication phase on the LogP host.
type Router uint8

const (
	// RouterDeterministic is Theorem 2's protocol: compute r by CB,
	// pad with dummies, sort messages by destination on an oblivious
	// sorting network, compute s, then deliver rank classes mod h in
	// pipelined cycles. Stall-free; requires a power-of-two p for
	// the bitonic network.
	RouterDeterministic Router = iota
	// RouterRandomized is Theorem 3's protocol: with h known in
	// advance, split messages into R = (1+beta)h/ceil(L/G) random
	// batches and transmit one batch per 2(L+o)-step round, followed
	// by a cleanup phase. Stalls only with polynomially small
	// probability.
	RouterRandomized
	// RouterOffline is the Section 4.2 off-line strategy for
	// input-independent relations: decompose into h 1-relations by
	// Hall's theorem and route them pipelined, in 2o + G(h-1) + L.
	RouterOffline
)

func (r Router) String() string {
	switch r {
	case RouterDeterministic:
		return "deterministic"
	case RouterRandomized:
		return "randomized"
	case RouterOffline:
		return "offline"
	default:
		return fmt.Sprintf("Router(%d)", uint8(r))
	}
}

// BSPOnLogP executes unmodified BSP programs on a LogP machine,
// superstep by superstep: local computation runs directly, the barrier
// is the Combine-and-Broadcast of Proposition 2, and the communication
// phase is realized by the selected Router.
type BSPOnLogP struct {
	// LogP holds the host machine parameters.
	LogP logp.Params
	// Router selects the routing protocol (default deterministic).
	Router Router
	// Policy is the host delivery policy (default max-latency).
	Policy logp.DeliveryPolicy
	// Seed seeds the host machine and the randomized router.
	Seed uint64
	// Beta is the randomized router's batch inflation factor
	// (0 selects 1, the smallest value Theorem 3's constant allows).
	Beta float64
	// Sort selects the deterministic router's oblivious sorting
	// algorithm (default SortAuto).
	Sort SortAlgo
	// StrictStallFree makes Run fail if the host execution stalls;
	// used to certify Theorem 2's stall-freedom.
	StrictStallFree bool

	// Cached cross-Run state: the host machine and the simulation's
	// adapter/step pools are rebuilt only when the fields they depend
	// on change, so seed-sweeping experiment loops reuse one set of
	// allocations across trials. Run was never safe for concurrent use
	// of one BSPOnLogP value (it reads the public fields un-locked);
	// the cache keeps it that way rather than making it worse.
	mach       *logp.Machine
	machParams logp.Params
	machPolicy logp.DeliveryPolicy
	machStrict bool
	sim        *bspSim
}

// Thm2Result reports a BSPOnLogP execution.
type Thm2Result struct {
	// HostTime is the measured LogP completion time.
	HostTime int64
	// GuestTime is the native BSP cost of the same execution
	// (sum of w + g*h + l over charged supersteps), the slowdown
	// denominator.
	GuestTime int64
	// Supersteps counts charged supersteps.
	Supersteps int
	// MessagesRouted counts BSP messages carried through the host
	// network (self-sends excluded).
	MessagesRouted int64
	// SuperstepH records the routed relation degree per superstep.
	SuperstepH []int64
	// Host is the raw LogP machine result (stall statistics etc.).
	Host logp.Result
	// GuestCosts holds the native per-superstep cost components.
	GuestCosts []bsp.SuperstepCost
	// Breakdown holds the measured host-side phase split of each
	// charged superstep next to its predicted guest cost.
	Breakdown []SuperstepBreakdown
}

// SuperstepBreakdown splits one charged superstep's host time into its
// phases — local compute, the barrier CB, and the routing protocol —
// each the maximum over processors, and places the guest-side
// prediction w + g*h + l next to the measured host span, in the style
// of the predicted-vs-measured superstep tables of the experimental
// BSP literature.
type SuperstepBreakdown struct {
	// Superstep is the charged superstep's index (into GuestCosts).
	Superstep int `json:"superstep"`
	// H is the routed relation degree (self-sends excluded).
	H int64 `json:"h"`
	// Compute is the host time from the superstep's start to the
	// barrier entry.
	Compute int64 `json:"compute"`
	// Barrier is the host time spent in the barrier CB.
	Barrier int64 `json:"barrier"`
	// Route is the host time spent in the routing protocol.
	Route int64 `json:"route"`
	// Predicted is the guest BSP charge w + g*h + l for this
	// superstep.
	Predicted int64 `json:"predicted"`
	// Measured is the host time from the superstep's start to the end
	// of routing.
	Measured int64 `json:"measured"`
}

// Slowdown returns HostTime/GuestTime, the quantity Theorem 2 bounds
// by S(L,G,p,h).
func (r Thm2Result) Slowdown() float64 {
	if r.GuestTime == 0 {
		return 1
	}
	return float64(r.HostTime) / float64(r.GuestTime)
}

// guestParams returns the guest BSP parameters of the native-cost
// accounting: matched g = G, l = L.
func (s *BSPOnLogP) guestParams() bsp.Params {
	g, l := matchedParams(s.LogP)
	return bsp.Params{P: s.LogP.P, G: g, L: l}
}

// Run executes prog and returns the measured host and guest costs. A
// setting outside its declared range — an unknown Router, Sort or
// Policy, or a Beta that is negative, NaN or infinite — fails the run
// before anything is built.
func (s *BSPOnLogP) Run(prog bsp.Program) (Thm2Result, error) {
	if err := s.LogP.Validate(); err != nil {
		return Thm2Result{}, err
	}
	switch {
	case s.Router > RouterOffline:
		return Thm2Result{}, fmt.Errorf("core: unknown router %v", s.Router)
	case s.Sort > SortColumnsort:
		return Thm2Result{}, fmt.Errorf("core: unknown sort algorithm %v", s.Sort)
	case s.Policy > logp.DeliverRandom:
		return Thm2Result{}, fmt.Errorf("core: unknown delivery policy %v", s.Policy)
	case !(s.Beta >= 0) || math.IsInf(s.Beta, 1):
		return Thm2Result{}, fmt.Errorf("core: Beta %v outside [0, +Inf) (0 selects 1)", s.Beta)
	}
	if s.Router == RouterDeterministic && s.Sort == SortBitonic && !isPow2(s.LogP.P) {
		return Thm2Result{}, fmt.Errorf("core: the bitonic network needs a power-of-two p, got %d (use SortAuto or SortColumnsort)", s.LogP.P)
	}
	host := s.hostProgram(prog)
	m := s.mach
	if m == nil || s.machParams != s.LogP ||
		s.machPolicy != s.Policy || s.machStrict != s.StrictStallFree {
		opts := []logp.Option{
			logp.WithDeliveryPolicy(s.Policy),
			logp.WithSeed(s.Seed),
		}
		if s.StrictStallFree {
			opts = append(opts, logp.WithStrictStallFree())
		}
		m = logp.NewMachine(s.LogP, opts...)
		s.mach, s.machParams = m, s.LogP
		s.machPolicy, s.machStrict = s.Policy, s.StrictStallFree
	} else {
		m.SetSeed(s.Seed)
	}
	hostRes, err := m.Run(host)
	return s.result(hostRes), err
}

// hostProgram readies the cached simulation for one run of prog and
// returns the LogP program every host processor executes: its pooled
// adapter runs prog, then finish keeps it in the barriers until all
// processors are done. Any logp.Proc substrate may run it, once.
func (s *BSPOnLogP) hostProgram(prog bsp.Program) logp.Program {
	sim := s.sim
	if sim == nil || sim.lp != s.LogP {
		sim = &bspSim{
			spec:     s,
			lp:       s.LogP,
			guest:    s.guestParams(),
			steps:    map[int]*stepState{},
			capacity: s.LogP.Capacity(),
			adapters: make([]*bspAdapter, s.LogP.P),
		}
		s.sim = sim
	} else {
		sim.reset(s)
	}
	return func(lp logp.Proc) {
		a := sim.adapter(lp)
		prog(a)
		a.finish()
	}
}

// result collects the Thm2Result of the host run of hostProgram that
// reported hostRes.
func (s *BSPOnLogP) result(hostRes logp.Result) Thm2Result {
	sim := s.sim
	res := Thm2Result{
		HostTime:       hostRes.Time,
		Host:           hostRes,
		MessagesRouted: sim.routedMsgs,
		SuperstepH:     sim.stepH,
		GuestCosts:     sim.guestCosts,
		Breakdown:      sim.breakdowns,
	}
	for _, c := range sim.guestCosts {
		res.GuestTime += c.Time(sim.guest)
		res.Supersteps++
	}
	return res
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// bspSim is the shared meta-state of one cross-simulation: the step
// map and pools, per-step registration and aggregates, the column-sort
// schedule cache, and the committed result slices. The host engine
// runs one guest processor at a time, so these need no locking. Every
// cross-processor mutation is either order-independent (maxima,
// counters, per-id slots) or sequenced by the simulation's own barrier
// causality: all P finishStep(k) calls precede every finishStep(k+1),
// so the commit order of supersteps — and hence guestCosts, stepH,
// and breakdowns — is fixed.
type bspSim struct {
	spec     *BSPOnLogP
	lp       logp.Params
	guest    bsp.Params
	capacity int64
	steps    map[int]*stepState

	guestCosts []bsp.SuperstepCost
	stepH      []int64
	breakdowns []SuperstepBreakdown
	routedMsgs int64
	colScheds  map[int]*columnSched

	// freeSteps recycles stepState values (and their per-processor
	// slice backings) between supersteps; a simulation only ever has
	// O(1) supersteps in flight, so the pool stays tiny while the
	// steady-state allocation rate drops to zero.
	freeSteps []*stepState

	// adapters pools the per-processor bsp.Proc adapters (and their
	// mailbox, outbox/inbox, and router scratch backings) across Runs
	// of the owning BSPOnLogP.
	adapters []*bspAdapter
}

// reset prepares a cached sim for another Run of the same spec. The
// result slices are handed to the caller at the end of every Run, so
// they are dropped rather than truncated; the pools stay.
func (sim *bspSim) reset(s *BSPOnLogP) {
	sim.spec = s
	sim.capacity = s.LogP.Capacity()
	clear(sim.steps) // a failed Run can leave partial steps behind
	sim.guestCosts, sim.stepH, sim.breakdowns = nil, nil, nil
	sim.routedMsgs = 0
}

// adapter returns processor lp's pooled adapter, re-pointed at this
// Run's Proc and reset to superstep 0 with its scratch backings kept.
func (sim *bspSim) adapter(lp logp.Proc) *bspAdapter {
	a := sim.adapters[lp.ID()]
	if a == nil {
		a = &bspAdapter{lp: lp, mb: collective.NewMailbox(lp), sim: sim,
			dummy: bsp.Message{Src: lp.ID(), Dst: lp.P()}}
		sim.adapters[lp.ID()] = a
	} else {
		a.lp = lp
		a.mb.Reset(lp)
		a.step, a.work, a.inboxPos, a.lastSync = 0, 0, 0, 0
		a.outbox = a.outbox[:0]
		a.inbox = a.inbox[:0]
	}
	a.rng.Reseed(sim.spec.Seed ^ (uint64(lp.ID())+1)*0x9e3779b97f4a7c15)
	return a
}

// stepState aggregates one superstep across processors.
type stepState struct {
	registered int
	finished   int
	workMax    int64
	hGuest     int64 // includes self-sends (matches bsp.Machine)
	outSelf    [][]bsp.Message
	outRouted  [][]bsp.Message

	metaDone bool
	h        int64 // degree of the routed relation
	maxOut   int64
	indeg    []int64
	// classOf[i][j] is the off-line routing cycle of outRouted[i][j]
	// (ensureDecomposition). Its table of p slices is kept for the next
	// superstep.
	classOf [][]int

	// Host-side phase maxima across processors, for the breakdown.
	computeMax  int64
	barrierMax  int64
	routeMax    int64
	measuredMax int64
}

func (sim *bspSim) step(k int) *stepState {
	st := sim.steps[k]
	if st == nil {
		p := sim.lp.P
		if n := len(sim.freeSteps); n > 0 {
			st = sim.freeSteps[n-1]
			sim.freeSteps = sim.freeSteps[:n-1]
			st.reset()
		} else {
			st = &stepState{
				outSelf:   make([][]bsp.Message, p),
				outRouted: make([][]bsp.Message, p),
			}
		}
		sim.steps[k] = st
	}
	return st
}

// reset clears a recycled stepState while keeping the per-processor
// slice backings for reuse.
func (st *stepState) reset() {
	for i := range st.outSelf {
		st.outSelf[i] = st.outSelf[i][:0]
		st.outRouted[i] = st.outRouted[i][:0]
	}
	st.registered, st.finished = 0, 0
	st.workMax, st.hGuest = 0, 0
	st.metaDone = false
	st.h, st.maxOut = 0, 0
	st.indeg = st.indeg[:0]
	clear(st.classOf) // drop the previous decomposition's classes
	st.classOf = st.classOf[:0]
	st.computeMax, st.barrierMax, st.routeMax, st.measuredMax = 0, 0, 0, 0
}

func (sim *bspSim) register(k, id int, outbox []bsp.Message, work int64) {
	st := sim.step(k)
	nSelf := 0
	for i := range outbox {
		if outbox[i].Dst == id {
			nSelf++
		}
	}
	if nSelf > 0 && cap(st.outSelf[id]) < nSelf {
		st.outSelf[id] = make([]bsp.Message, 0, nSelf)
	}
	if n := len(outbox) - nSelf; n > 0 && cap(st.outRouted[id]) < n {
		st.outRouted[id] = make([]bsp.Message, 0, n)
	}
	for _, m := range outbox {
		if m.Dst == id {
			st.outSelf[id] = append(st.outSelf[id], m)
		} else {
			st.outRouted[id] = append(st.outRouted[id], m)
		}
	}
	if work > st.workMax {
		st.workMax = work
	}
	st.registered++
}

// ensureMeta computes the relation aggregates once all processors have
// registered (guaranteed after the barrier CB).
func (st *stepState) ensureMeta(p int) {
	if st.metaDone {
		return
	}
	if st.registered != p {
		panic(fmt.Sprintf("core: meta requested with %d/%d processors registered (bug)", st.registered, p))
	}
	if cap(st.indeg) >= p {
		st.indeg = st.indeg[:p]
		for i := range st.indeg {
			st.indeg[i] = 0
		}
	} else {
		st.indeg = make([]int64, p)
	}
	inSelf := make([]int64, p)
	for i := 0; i < p; i++ {
		out := int64(len(st.outRouted[i]))
		if out > st.maxOut {
			st.maxOut = out
		}
		outAll := out + int64(len(st.outSelf[i]))
		if outAll > st.hGuest {
			st.hGuest = outAll
		}
		for _, m := range st.outRouted[i] {
			st.indeg[m.Dst]++
		}
		inSelf[i] = int64(len(st.outSelf[i]))
	}
	st.h = st.maxOut
	for i, d := range st.indeg {
		if d > st.h {
			st.h = d
		}
		if d+inSelf[i] > st.hGuest {
			st.hGuest = d + inSelf[i]
		}
	}
	st.metaDone = true
}

// ensureDecomposition computes the off-line Hall decomposition once
// per superstep. The pairs are listed processor by processor, so the
// classes DecomposeIndexed returns, one per pair in order, hold each
// processor's run in turn, and classOf carves them into one slice per
// processor.
func (st *stepState) ensureDecomposition(p int) {
	st.ensureMeta(p)
	if len(st.classOf) != 0 || st.h == 0 {
		return
	}
	n := 0
	for i := 0; i < p; i++ {
		n += len(st.outRouted[i])
	}
	rel := relation.Relation{P: p, Pairs: make([]relation.Pair, 0, n)}
	for i := 0; i < p; i++ {
		for _, m := range st.outRouted[i] {
			rel.Pairs = append(rel.Pairs, relation.Pair{Src: i, Dst: m.Dst})
		}
	}
	classes, _ := relation.DecomposeIndexed(rel)
	classOf := slices.Grow(st.classOf[:0], p)
	for i := 0; i < p; i++ {
		k := len(st.outRouted[i])
		classOf = append(classOf, classes[:k:k])
		classes = classes[k:]
	}
	st.classOf = classOf
}

// recordPhases folds one processor's measured superstep phase spans
// into the step's cross-processor maxima.
func (sim *bspSim) recordPhases(st *stepState, compute, barrier, route, measured int64) {
	if compute > st.computeMax {
		st.computeMax = compute
	}
	if barrier > st.barrierMax {
		st.barrierMax = barrier
	}
	if route > st.routeMax {
		st.routeMax = route
	}
	if measured > st.measuredMax {
		st.measuredMax = measured
	}
}

// finishStep releases per-step state once every processor is done with
// it, committing the guest-side cost.
func (sim *bspSim) finishStep(k int) {
	st := sim.steps[k]
	st.finished++
	if st.finished < sim.lp.P {
		return
	}
	st.ensureMeta(sim.lp.P)
	cost := bsp.SuperstepCost{W: st.workMax, H: st.hGuest}
	if cost.W > 0 || cost.H > 0 {
		sim.guestCosts = append(sim.guestCosts, cost)
		sim.stepH = append(sim.stepH, st.h)
		sim.breakdowns = append(sim.breakdowns, SuperstepBreakdown{
			Superstep: len(sim.guestCosts) - 1,
			H:         st.h,
			Compute:   st.computeMax,
			Barrier:   st.barrierMax,
			Route:     st.routeMax,
			Predicted: cost.Time(sim.guest),
			Measured:  st.measuredMax,
		})
	}
	for i := 0; i < sim.lp.P; i++ {
		sim.routedMsgs += int64(len(st.outRouted[i]))
	}
	delete(sim.steps, k)
	sim.freeSteps = append(sim.freeSteps, st)
}

// bspAdapter implements bsp.Proc on top of a LogP processor.
type bspAdapter struct {
	lp  logp.Proc
	mb  *collective.Mailbox
	sim *bspSim
	rng stats.RNG

	step     int
	work     int64
	outbox   []bsp.Message
	inbox    []bsp.Message
	inboxPos int
	lastSync int64 // host clock when the previous superstep ended

	// batchOf and leftIdx are routeRandomized's per-superstep scratch
	// (the batch drawn for each routed message, and the round-ordered
	// indices deferred to the cleanup phase), kept on the adapter so
	// steady-state routing allocates nothing.
	batchOf []int32
	leftIdx []int32

	// The deterministic router's scratch, all holding *bsp.Message
	// handles rather than message copies (see routeDeterministic):
	// block is this processor's sorting block, sortBuf the networks'
	// receive and merge space, and sched Step 4's class-indexed
	// schedule, which deliverWindowed leaves all nil. keys holds
	// computeS's destination keys. dummy is the padding message
	// {Src: id, Dst: p} every dummy handle of this processor points at.
	block   []*bsp.Message
	sortBuf []*bsp.Message
	sched   []*bsp.Message
	keys    []int64
	dummy   bsp.Message

	// gotBuf backs the routers' received-message slice; barrierAndRoute
	// reclaims it after draining the superstep's arrivals into the
	// inbox. Until deliverWindowed fills it, the sorting networks and
	// computeS receive their runs of messages into it (recvBuf).
	// sendBuf holds the sorting networks' outgoing blocks (sendBlock),
	// which SendFrom reads until the next call that returns a value.
	gotBuf  []logp.Message
	sendBuf []logp.Message
}

var _ bsp.Proc = (*bspAdapter)(nil)

func (a *bspAdapter) ID() int            { return a.lp.ID() }
func (a *bspAdapter) P() int             { return a.lp.P() }
func (a *bspAdapter) Params() bsp.Params { return a.sim.guest }
func (a *bspAdapter) Superstep() int     { return a.step }
func (a *bspAdapter) Inbox() int         { return len(a.inbox) - a.inboxPos }

func (a *bspAdapter) Compute(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("core: Compute(%d) with negative work", n))
	}
	a.work += n
	a.lp.Compute(n)
}

func (a *bspAdapter) Send(dst int, tag int32, payload, aux int64) {
	if dst < 0 || dst >= a.lp.P() {
		panic(fmt.Sprintf("core: Send to invalid destination %d (P=%d)", dst, a.lp.P()))
	}
	a.outbox = append(a.outbox, bsp.Message{Src: a.lp.ID(), Dst: dst, Tag: tag, Payload: payload, Aux: aux})
}

func (a *bspAdapter) Recv() (bsp.Message, bool) {
	if a.inboxPos >= len(a.inbox) {
		return bsp.Message{}, false
	}
	m := a.inbox[a.inboxPos]
	a.inboxPos++
	return m, true
}

func (a *bspAdapter) Sync() { a.barrierAndRoute(false) }

// finish keeps the processor participating in barriers and routing
// after its program returned, until every processor has finished —
// BSP allows uneven termination but the LogP collectives structurally
// involve all processors.
func (a *bspAdapter) finish() {
	for !a.barrierAndRoute(true) {
	}
}

func (a *bspAdapter) barrierAndRoute(finished bool) (allDone bool) {
	id := a.lp.ID()
	a.sim.register(a.step, id, a.outbox, a.work)
	flag := int64(0)
	if finished {
		flag = 1
	}
	barrierEntry := a.lp.Now()
	done := collective.CombineBroadcast(a.mb, tagBarrier, flag, collective.OpAnd)
	barrierExit := a.lp.Now()

	st := a.sim.step(a.step)
	dtag := dataTag(a.step)
	var received []logp.Message
	switch a.sim.spec.Router {
	case RouterDeterministic:
		received = a.routeDeterministic(st, dtag)
	case RouterRandomized:
		received = a.routeRandomized(st, dtag)
	case RouterOffline:
		received = a.routeOffline(st, dtag)
	default:
		panic("core: unknown router")
	}
	routeExit := a.lp.Now()
	a.sim.recordPhases(st,
		barrierEntry-a.lastSync, barrierExit-barrierEntry,
		routeExit-barrierExit, routeExit-a.lastSync)
	a.lastSync = routeExit

	// The previous superstep's inbox is dead past its Sync, so its
	// backing array is reusable; the message values below are copies.
	inbox := a.inbox[:0]
	for i := range received {
		inbox = append(inbox, *received[i].Body.(*bsp.Message))
	}
	inbox = append(inbox, st.outSelf[id]...)
	if received != nil {
		a.gotBuf = received[:0]
	}
	a.sim.finishStep(a.step)

	a.inbox = inbox
	a.inboxPos = 0
	a.outbox = a.outbox[:0]
	a.work = 0
	a.step++
	return done == 1
}

// recvBuf returns gotBuf resliced to n messages, for a RecvAllWhere to
// fill. Its contents are dead while a superstep routes: the previous
// superstep's arrivals were copied into the inbox.
func (a *bspAdapter) recvBuf(n int) []logp.Message {
	if cap(a.gotBuf) < n {
		a.gotBuf = make([]logp.Message, n)
	}
	return a.gotBuf[:n]
}

// sendBlock returns sendBuf resliced to n messages, for a sorting
// network to fill with one block and submit by SendFrom. Each exchange
// calls something that returns a value before it builds the next
// block, so the engine has read the previous one by then.
func (a *bspAdapter) sendBlock(n int) []logp.Message {
	if cap(a.sendBuf) < n {
		a.sendBuf = make([]logp.Message, n)
	}
	return a.sendBuf[:n]
}

// recvTagSeq receives the next n messages with the given tag and Aux
// sequence stamp into recvBuf(n), by one RecvAllWhere: the block
// exchanges issue nothing between these receives, so the engine
// answers the whole run with one crossing.
func (a *bspAdapter) recvTagSeq(tag int32, seq int64, n int) []logp.Message {
	got := a.recvBuf(n)
	a.mb.RecvAllWhere(func(m logp.Message) bool { return m.Tag == tag && m.Aux == seq }, got)
	return got
}

// Tag layout used by the cross-simulation protocols.
const (
	tagRCount int32 = -96 // CB for r (descend -95)
	tagSumUp  int32 = -92 // summary-reduce ascend
	tagSBcast int32 = -90 // broadcast of s
	tagBaseCB int32 = -88 // CB(MAX now) for base-time agreement (descend -87)
	tagSort   int32 = -84 // sorting-network exchanges
	tagNeigh  int32 = -82 // columnsort boundary exchange
)

// alignSlack bounds the time between the last processor joining a CB
// and the last processor leaving it; globalBase uses it to pick a
// common future instant all processors can reach. Per tree level the
// ascend costs at most one delivery (L) plus overheads plus the
// receiving parent's d gap-spaced acquisitions, and when the capacity
// is 1 the paper's even/odd schedule can add a 2L slot wait; the
// descend costs one delivery plus the parent's d gap-spaced sends.
func alignSlack(params logp.Params) int64 {
	d := collective.TreeArity(params)
	levels := int64(0)
	for v := 1; v < params.P; v *= d {
		levels++
	}
	perLevel := 2*(params.L+2*params.O) + 2*int64(d)*params.G
	// The combined per-processor gap can delay a node's first send
	// after its last acquisition by G rather than o, once per direction.
	perLevel += 2 * params.G
	if params.Capacity() == 1 {
		perLevel += 2*params.L + params.G
	}
	return levels*perLevel + 2*params.L + 4*params.O
}

// globalBase agrees on a common future time: every processor learns
// the maximum joining time via CB(MAX) and idles until that plus the
// CB completion slack. All processors return the same value.
func (a *bspAdapter) globalBase() int64 {
	join := a.lp.Now()
	tstar := collective.CombineBroadcast(a.mb, tagBaseCB, join, collective.OpMax)
	base := tstar + alignSlack(a.lp.Params())
	if a.lp.Now() > base {
		panic(fmt.Sprintf("core: processor %d passed the agreed base time (now %d > base %d); alignSlack too small", a.lp.ID(), a.lp.Now(), base))
	}
	return base
}

// schedule returns the adapter's Step 4 schedule for h delivery
// classes: a length-h slice of nil handles, for the caller to fill and
// deliverWindowed to clear.
func (a *bspAdapter) schedule(h int64) []*bsp.Message {
	if int64(cap(a.sched)) < h {
		a.sched = make([]*bsp.Message, h)
	}
	return a.sched[:h]
}

// deliverWindowed realizes Step 4 of the routing protocols: pipelined
// delivery cycles every G steps, with at most one message per
// processor per cycle (sched[c] is cycle c's message, or nil; its
// length is the degree h), interleaved with opportunistic
// acquisitions; all arrivals land by the deadline base + h*G + L,
// after which the input buffer is drained. Cycle c's submission
// instant is base + (c+1)*G: the +G offset leaves room for the o
// preparation overhead of cycle 0 after the base alignment, so every
// processor's submissions share one grid — mixed grids could
// transiently exceed the capacity bound and stall. sched is all nil
// again on return.
func (a *bspAdapter) deliverWindowed(sched []*bsp.Message, base int64, dtag int32) []logp.Message {
	lp := a.lp
	params := lp.Params()
	h := int64(len(sched))
	match := func(m logp.Message) bool { return m.Tag == dtag }
	got := a.mb.TakeMatchingInto(match, a.gotBuf[:0])
	// Messages are received into got's spare capacity, and the
	// mailbox's KeepMatching then holds the ones of other phases. At
	// most h arrivals match, so room for exactly h+1 more leaves every
	// poll a free slot without growing got past what its matches need.
	if need := len(got) + len(sched) + 1; cap(got) < need {
		got = append(make([]logp.Message, 0, need), got...)
	}
	// An opportunistic acquisition at r holds the combined
	// per-processor gap until r+G and the local clock until r+o, so it
	// is admissible only while both leave the next pinned submission on
	// its grid slot: while the clock is at most that slot minus margin.
	margin := max(2*params.O, params.G)
	for c, item := range sched {
		slot := base + int64(c+1)*params.G
		if item != nil {
			lp.WaitUntil(slot - params.O)
			lp.SendBody(item.Dst, dtag, item.Payload, item.Aux, item)
		}
		// Poll while anything has arrived, again if the poll filled
		// the spare capacity.
		for {
			from := len(got)
			spare := got[from:cap(got)]
			n := lp.TryRecvInto(spare, slot+params.G-margin)
			got = a.mb.KeepMatching(got[:from+n], from, match)
			if n < len(spare) {
				break
			}
			got = slices.Grow(got, 1)
		}
	}
	clear(sched)
	deadline := base + h*params.G + params.L
	lp.WaitUntil(deadline)
	// Drain what has arrived. All k buffered messages arrived by the
	// clock, so a RecvInto of k acquires exactly what k turns of
	// Buffered and Recv would. Acquiring moves the clock, so ask again.
	for k := lp.Buffered(); k > 0; k = lp.Buffered() {
		from := len(got)
		got = slices.Grow(got, k)[:from+k]
		lp.RecvInto(got[from:])
		got = a.mb.KeepMatching(got, from, match)
	}
	return got
}

// routeOffline is the Section 4.2 off-line strategy: the relation is
// known in advance (here: from the shared meta-state, per the paper's
// premise), decomposed into h 1-relations by Hall's theorem, and
// routed pipelined in 2o + G(h-1) + L.
func (a *bspAdapter) routeOffline(st *stepState, dtag int32) []logp.Message {
	st.ensureDecomposition(a.sim.lp.P)
	if st.h == 0 {
		return nil
	}
	base := a.globalBase()
	id := a.lp.ID()
	mine := st.outRouted[id]
	sched := a.schedule(st.h)
	for j := range mine {
		sched[st.classOf[id][j]] = &mine[j]
	}
	return a.deliverWindowed(sched, base, dtag)
}

// routeRandomized is Theorem 3's protocol. The degree h is assumed
// known in advance (taken from the meta-state); messages are assigned
// uniform random batches, one batch is transmitted per 2(L+o)-step
// round with at most capacity messages per processor, and leftovers
// go out in a cleanup phase that may stall.
func (a *bspAdapter) routeRandomized(st *stepState, dtag int32) []logp.Message {
	lp := a.lp
	st.ensureMeta(a.sim.lp.P)
	if st.h == 0 {
		return nil
	}
	params := lp.Params()
	capacity := a.sim.capacity
	beta := a.sim.spec.Beta
	if beta <= 0 {
		beta = 1
	}
	rounds := stats.Theorem3Rounds(int(st.h), int(capacity), beta)
	id := lp.ID()
	mine := st.outRouted[id]
	// Draw every message's batch up front (one RNG draw per message, in
	// message order) into reusable scratch instead of materializing
	// per-batch slices; each round then scans mine for its members,
	// which preserves the former batch-slice order exactly.
	batchOf := a.batchOf[:0]
	for range mine {
		batchOf = append(batchOf, int32(a.rng.Intn(rounds)))
	}
	a.batchOf = batchOf
	base := a.globalBase()
	roundLen := 2 * (params.L + params.O)
	leftIdx := a.leftIdx[:0]
	for j := int32(0); int(j) < rounds; j++ {
		start := base + int64(j)*roundLen
		lp.WaitUntil(start)
		sent := int64(0)
		for i := range mine {
			if batchOf[i] != j {
				continue
			}
			if sent >= capacity {
				leftIdx = append(leftIdx, int32(i))
				continue
			}
			m := &mine[i]
			lp.SendBody(m.Dst, dtag, m.Payload, m.Aux, m)
			sent++
		}
	}
	// Cleanup phase: transmit the remainder, one submission every G
	// (the gap rule enforces the spacing); these may stall. leftIdx
	// carries them in round order, matching the round loop above.
	for _, i := range leftIdx {
		m := &mine[i]
		lp.SendBody(m.Dst, dtag, m.Payload, m.Aux, m)
	}
	a.leftIdx = leftIdx
	// Receive phase: the in-degree is known in advance per the
	// theorem's premise.
	got := a.recvBuf(int(st.indeg[id]))
	a.mb.RecvAllWhere(func(m logp.Message) bool { return m.Tag == dtag }, got)
	// Hold until the schedule's end before returning to the barrier:
	// if this processor's next-superstep CB ascend arrived at its
	// tree parent while that parent still had data in transit, the
	// extra message could overflow the capacity bound and stall. In
	// the no-leftover case (whp, per Theorem 3) every data message
	// has been delivered by then.
	lp.WaitUntil(base + int64(rounds)*roundLen + params.L)
	return got
}
