package logp

import (
	"fmt"
	"math"
)

// Processor lifecycle. A Script's processors that have no work before
// their first message (Script.Active(id) == false) are never
// materialized at startup: the nil slot in Machine.procs
// together with a clear startedBits bit is the whole template. A
// template is instantiated when its first message is delivered — its
// local prefix runs then, which the passivity contract makes
// unobservable — or by the finalization sweep at termination, so
// deadlock reports and completion checks see exactly the processors
// the dense engine would. Halted processors of either form are recycled
// back into the struct pool (procFree), with the few still-observable
// facts (final clock, stall cycles, buffered depth) retired into
// dense/side structures, so a long run's live footprint follows the
// active set, not P.

// started reports whether processor id was ever materialized this run.
// procs[id] == nil then distinguishes a template (not started) from a
// recycled halted processor (started).
func (m *Machine) started(id int) bool {
	return m.startedBits[id>>6]&(1<<(uint(id)&63)) != 0
}

// ensureProc materializes processor id and marks it started. Records
// come from the recycle freelist first (a halted processor's record,
// warm in cache), then from the arena, which re-hands the
// previous run's chunk memory before growing (see arena.go); either
// way the caller reinits the record. Nothing here allocates once the
// arena has reached the run's high-water record count.
func (m *Machine) ensureProc(id int) *proc {
	var p *proc
	if n := len(m.procFree); n > 0 {
		p = m.procFree[n-1]
		m.procFree[n-1] = nil
		m.procFree = m.procFree[:n-1]
	} else {
		p = m.arena.alloc()
		p.m = m
	}
	p.id = id
	m.procs[id] = p
	m.startedBits[id>>6] |= 1 << (uint(id) & 63)
	return p
}

// maybeRecycle returns a halted processor's struct to the pool.
// Everything a Result or a later instant can still observe is retired
// first: the final clock into procTimes, stall cycles into the run
// accumulator, and any never-acquired buffered arrivals into doneBufLen
// (their records are freed — after halt only the depth is observable,
// via MaxBufferDepth). A halted Program's coroutine has already
// returned, so the shutdown sweep has nothing left to stop in it.
func (m *Machine) maybeRecycle(p *proc) {
	if p.state != stateDone || m.procs[p.id] != p {
		return
	}
	m.procTimes[p.id] = p.clock
	m.doneStall += p.stallCycles
	if p.bufLen > 0 {
		m.doneBufLen[p.id] = p.bufLen
		for p.bufHead >= 0 {
			m.freeRec(m.popBuf(p))
		}
	}
	m.procs[p.id] = nil
	m.procFree = append(m.procFree, p)
}

// instantiateLazy materializes template id and runs its local prefix,
// which must end in the processor's first Recv (parking it to receive
// the delivery that triggered the instantiation), a halt, or a panic.
// Anything else breaks the passivity contract and fails the run: a
// Send, or even a poll that fails, would have interacted with the rest
// of the machine had the prefix run at startup, so deferring it would
// no longer be unobservable.
//
// t is the instant of the triggering delivery (MaxInt64 from the
// finalization sweep). It decides how far the dense engine would
// already have taken the processor: a Recv parked at clock < t would
// have executed — on an empty buffer — before this instant, so the
// processor is left waiting for a message; a Recv at clock >= t is
// still pending in commit order, so it goes into the ready queue for
// the commit loop to execute at its proper (clock, id) turn. The
// distinction keeps acquisition events in exactly the dense trace
// order.
func (m *Machine) instantiateLazy(id int, t int64) {
	m.templateCount--
	p := m.ensureProc(id)
	p.reinit()
	m.await(p, &noMsg, false, 0)
	switch p.pending.Kind {
	case ScriptRecv:
		if p.clock < t {
			// Mirror exec(ScriptRecv) on an empty buffer: one simulation
			// event, then wait for a message. The buffer is empty by
			// construction — the triggering delivery has not been
			// appended yet.
			m.simEvents++
			p.state = stateWaitMsg
		} else {
			m.pushReady(p)
		}
	case ScriptHalt:
		// await recorded the outcome and recycled the proc.
	default:
		m.failProc(p, fmt.Errorf("logp: processor %d declared passive performed a non-local operation before its first Recv", id))
		p.state = stateDone
		m.doneCount++
		m.maybeRecycle(p)
	}
}

// finalizeTemplates instantiates every remaining template in id order.
// The scheduler calls it when no processor is runnable and no event is
// pending, so each prefix runs exactly as a startup sweep would have;
// afterwards the completion and deadlock checks observe the same
// processor states as the dense engine.
func (m *Machine) finalizeTemplates() {
	for id := 0; id < m.params.P && m.templateCount > 0; id++ {
		if m.procs[id] == nil && !m.started(id) {
			m.instantiateLazy(id, math.MaxInt64)
		}
	}
}
