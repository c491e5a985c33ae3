package core

import (
	"fmt"

	"repro/internal/logp"
	"repro/internal/netsim"
	"repro/internal/runq"
)

// LogPOnNet implements the LogP abstraction directly on the
// point-to-point networks of Section 5, the direction internal/netrun
// provides for BSP: an unmodified logp.Program runs with its processors
// paced by the overhead o and gap G, while every message's delivery
// time is decided by the packet network itself. The co-simulation
// steps a netsim.Router one step at a time, in lockstep with the
// processor clocks, injecting each submission at its instant.
//
// The machine reports the per-message latency distribution it
// observed, which is exactly the quantity the paper's Section 5
// analysis bounds: a network supports stall-free LogP with latency
// parameter L* only if capacity-paced traffic's worst message latency
// stays below L*. Experiment E13 measures that per topology.
type LogPOnNet struct {
	params logp.Params
	net    *netsim.Network
}

// NewLogPOnNet pairs LogP pacing parameters with a network. The
// parameters' P must match the network's processor count; L is the
// nominal latency exposed to programs via Params() (e.g. for choosing
// tree arities) but plays no role in delivery — the network does.
func NewLogPOnNet(params logp.Params, net *netsim.Network) *LogPOnNet {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if params.P != net.G.P() {
		panic(fmt.Sprintf("core: params have p=%d, network %d", params.P, net.G.P()))
	}
	return &LogPOnNet{params: params, net: net}
}

// NetResult reports a LogPOnNet run.
type NetResult struct {
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
func (m *LogPOnNet) Run(prog logp.Program) (NetResult, error) {
	sc := logp.ProgramAsScript(m.params, prog)
	defer sc.Stop()
	e := &netEngine{router: m.net.NewRouter()}
	e.reset(m.params)
	e.start(sc)
	if err := e.loop(); err != nil {
		return NetResult{}, err
	}
	res := NetResult{
		Messages:      e.sent,
		MaxMsgLatency: e.maxLat,
		ProcTimes:     make([]int64, m.params.P),
	}
	if e.sent > 0 {
		res.MeanMsgLatency = float64(e.sumLat) / float64(e.sent)
	}
	for i := range e.procs {
		res.ProcTimes[i] = e.procs[i].clock
		res.Time = max(res.Time, e.procs[i].clock)
	}
	return res, nil
}

// netEngine is the co-simulation: the guest runtime (see guests) with
// the packet network as the medium. A submission waits in subs until
// the network reaches its instant; its packet's tag is its message
// record's index.
type netEngine struct {
	guests

	router *netsim.Router
	subs   runq.Queue // submissions not yet injected, by (instant, submission count)
	maxLat int64
	sumLat int64
}

// loop is the co-simulation's commit loop. The network is stepped while
// it is behind the smallest guest clock, and the committing guest is
// chosen again after every step, since the step's arrivals may wake a
// guest with a smaller clock. So a guest commits only once the network
// has reached its clock, and every submission, at an instant no earlier
// than its submitter's clock, is injected on time.
//
//hot:path the network co-simulation's per-event commit loop
func (e *netEngine) loop() error {
	for {
		if e.ready.Len() > 0 {
			if e.router.Step() < e.ready.Min().At {
				e.step()
				continue
			}
			p := &e.procs[e.ready.PopMin().Idx]
			if p.pending.Kind == logp.ScriptSend {
				s, idx := e.submit(p)
				e.subs.Push(runq.Ref{At: s, Tie: e.sent, Idx: idx})
				e.await(p, &noMsg, false, 0)
			} else {
				e.exec(p)
			}
			continue
		}
		if e.halted == len(e.procs) {
			break
		}
		if e.procErr != nil {
			return e.procErr
		}
		if e.subs.Len() == 0 && e.router.Pending() == 0 {
			return e.deadlockError()
		}
		// Every live guest waits on the network.
		e.step()
	}
	if e.procErr != nil {
		return e.procErr
	}
	// Messages still in flight when the last guest halts count in
	// Messages; deliver them so they count in the latency statistics
	// too, as the logp engine drains its in-flight deliveries.
	for e.subs.Len() > 0 || e.router.Pending() > 0 {
		e.step()
	}
	return nil
}

// step advances the network one step: it injects the submissions due
// at the current step, moves the packets, and delivers the arrivals.
func (e *netEngine) step() {
	now := e.router.Step()
	for e.subs.Len() > 0 && e.subs.Min().At <= now {
		ref := e.subs.PopMin()
		if ref.At < now {
			panic(fmt.Sprintf("core: submission at %d injected late, at network step %d (bug)", ref.At, now))
		}
		m := &e.recs[ref.Idx].msg
		e.router.Inject(ref.Idx, m.Src, m.Dst)
	}
	for _, a := range e.router.Advance() {
		lat := a.Step - e.recs[a.ID].at
		e.maxLat = max(e.maxLat, lat)
		e.sumLat += lat
		e.arrive(a.ID, a.Step)
	}
	e.wakeAll()
}

// deadlockError renders the co-simulation's deadlock diagnostic.
//
//hot:cold failure epilogue: the diagnostic rendering may allocate
func (e *netEngine) deadlockError() error {
	return fmt.Errorf("core: deadlock: processors %v blocked on Recv with no packets in flight", e.blocked())
}
