// Package netrun implements the BSP abstraction directly on the
// point-to-point networks of Section 5: every superstep's message set
// is routed packet-by-packet along the topology's shortest paths by
// internal/netsim, and the barrier is charged the network diameter
// ("on any processor network barrier synchronization can always be
// implemented in time proportional to the diameter").
//
// Where internal/bsp charges the abstract cost w + g·h + l, netrun
// measures what a concrete machine built on a mesh, hypercube,
// butterfly, CCC, shuffle-exchange or mesh-of-trees would actually
// spend — making the paper's portability argument executable: one BSP
// program, many machines, performance tracking each network's
// gamma(p)·h + delta(p).
package netrun

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/netsim"
	"repro/internal/relation"
)

// Machine executes BSP programs on a packet network. It reuses one
// netsim.Router across supersteps and runs, so it is not safe for
// concurrent use; build one Machine per goroutine.
type Machine struct {
	net    *netsim.Network
	router *netsim.Router
}

// NewMachine builds a BSP-on-network machine over net. Packets follow
// net's shortest-path next hops, with no Valiant intermediate.
func NewMachine(net *netsim.Network) *Machine {
	return &Machine{net: net, router: net.NewRouter()}
}

// SuperstepCost records one superstep's measured components.
type SuperstepCost struct {
	// W is the maximum local work charged by any processor.
	W int64
	// H is the degree of the superstep's relation.
	H int64
	// RouteSteps is the measured network time for the message set.
	RouteSteps int64
}

// Result reports an execution.
type Result struct {
	// Time = sum over supersteps of W + RouteSteps + barrier.
	Time int64
	// Supersteps counts charged supersteps.
	Supersteps int
	// MessagesSent counts all routed messages.
	MessagesSent int64
	// Costs holds per-superstep components.
	Costs []SuperstepCost
}

// stepLog records one processor's activity in one superstep.
type stepLog struct {
	work   int64
	outbox []bsp.Message
}

// recordingProc wraps the native machine's Proc, logging work and
// outboxes per superstep. Each processor writes only its own log slot,
// so no log is shared between processors.
type recordingProc struct {
	bsp.Proc
	log *[]stepLog // this processor's per-superstep records
	cur stepLog
}

func (r *recordingProc) Compute(n int64) {
	r.cur.work += n
	r.Proc.Compute(n)
}

func (r *recordingProc) Send(dst int, tag int32, payload, aux int64) {
	r.cur.outbox = append(r.cur.outbox, bsp.Message{Src: r.Proc.ID(), Dst: dst, Tag: tag, Payload: payload, Aux: aux})
	r.Proc.Send(dst, tag, payload, aux)
}

func (r *recordingProc) Sync() {
	*r.log = append(*r.log, r.cur)
	r.cur = stepLog{}
	r.Proc.Sync()
}

// Run executes prog: the program runs on a native BSP machine (for
// semantics), while every superstep's message set is replayed on the
// packet network to measure its real routing time.
func (m *Machine) Run(prog bsp.Program) (Result, error) {
	p := m.net.G.P()
	// The native machine only provides semantics; its g and l do not
	// enter the measured cost.
	native := bsp.NewMachine(bsp.Params{P: p, G: 1, L: 1})
	logs := make([][]stepLog, p)
	nres, err := native.Run(func(pr bsp.Proc) {
		rec := &recordingProc{Proc: pr, log: &logs[pr.ID()]}
		prog(rec)
		// Flush the final partial superstep's record.
		*rec.log = append(*rec.log, rec.cur)
	})
	if err != nil {
		return Result{}, err
	}

	maxSteps := 0
	for _, l := range logs {
		if len(l) > maxSteps {
			maxSteps = len(l)
		}
	}
	barrier := int64(m.net.Diameter())
	res := Result{}
	for s := 0; s < maxSteps; s++ {
		var cost SuperstepCost
		rel := relation.Relation{P: p}
		fanIn := make([]int64, p)
		for id, l := range logs {
			if s >= len(l) {
				continue
			}
			if l[s].work > cost.W {
				cost.W = l[s].work
			}
			if out := int64(len(l[s].outbox)); out > cost.H {
				cost.H = out
			}
			for _, msg := range l[s].outbox {
				rel.Pairs = append(rel.Pairs, relation.Pair{Src: id, Dst: msg.Dst})
				fanIn[msg.Dst]++
			}
		}
		for _, f := range fanIn {
			if f > cost.H {
				cost.H = f
			}
		}
		if cost.W == 0 && len(rel.Pairs) == 0 {
			continue
		}
		if len(rel.Pairs) > 0 {
			r := m.router.Route(rel, netsim.RouteOptions{})
			cost.RouteSteps = int64(r.Steps)
			res.MessagesSent += int64(r.Packets)
		}
		res.Costs = append(res.Costs, cost)
		res.Time += cost.W + cost.RouteSteps + barrier
		res.Supersteps++
	}
	// Sanity: the native machine and the replay must agree on the
	// message volume.
	if nres.MessagesSent != res.MessagesSent {
		return res, fmt.Errorf("netrun: replayed %d messages, native machine routed %d (bug)", res.MessagesSent, nres.MessagesSent)
	}
	return res, nil
}

// Predict returns the abstract-cost prediction for the same execution
// under parameters (g, l): sum of W + g*H + l. Comparing it with the
// measured Time quantifies how well the bandwidth-latency abstraction
// models this network.
func (r Result) Predict(g, l int64) int64 {
	var t int64
	for _, c := range r.Costs {
		t += c.W + g*c.H + l
	}
	return t
}
