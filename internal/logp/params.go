// Package logp implements the LogP model of parallel computation as an
// executable virtual machine.
//
// The machine follows the definition in Section 2.2 of Bilardi, Herley,
// Pietracaprina, Pucci and Spirakis, "BSP vs LogP" (SPAA 1996 /
// Algorithmica 1999): p serial processors with private memories interact
// through a communication medium characterized by a latency bound L, a
// per-processor overhead o, and a gap G. Consecutive submission instants
// of a processor must be at least G apart, as must consecutive
// acquisition instants. At most Capacity() = ceil(L/G) messages may be
// in transit toward any single destination; submissions that would
// exceed that bound leave the submitting processor stalling, and are
// accepted according to the paper's Stalling Rule: at any instant with k
// submitted-but-unaccepted messages for destination i and s free
// capacity slots, exactly min(k,s) of them are accepted (this
// implementation accepts them in FIFO order by submission instant,
// breaking ties by processor id).
//
// Each simulated processor runs its Program as a coroutine of a
// sequential, conservative discrete-event engine, so a run is
// deterministic for a fixed seed while programs are written in ordinary
// imperative style against the Proc interface. The subpackage reference
// is a deliberately naive interpreter of the same model, independent of
// the engine's code; the differential tests hold the engine to it bit
// for bit.
package logp

import "fmt"

// Params carries the LogP machine parameters. Following the paper, the
// time unit is the duration of one local operation, and the parameters
// are assumed to satisfy max(2, O) <= G <= L (Section 2.2 motivates
// each of the three constraints).
type Params struct {
	// P is the number of processors.
	P int
	// L bounds the time between the acceptance of a message by the
	// medium and its delivery at the destination.
	L int64
	// O (the overhead) is the time a processor spends preparing a
	// message for submission or acquiring an incoming message.
	O int64
	// G (the gap) is the minimum spacing between consecutive
	// submission instants, and between consecutive acquisition
	// instants, of the same processor.
	G int64
}

// Capacity returns the medium's per-destination capacity ceil(L/G):
// the maximum number of accepted-but-undelivered messages allowed to
// be in transit toward any single processor.
func (p Params) Capacity() int64 {
	return (p.L + p.G - 1) / p.G
}

// GapTime returns G·h, the gap-bound service time of h messages
// through one processor or one destination: submissions (and
// acquisitions) of a processor are at least G apart (Section 2.2), so
// h of them occupy at least G·h time. This is the canonical drain-rate
// charge — the hot-spot examples and the Theorem 3 routing experiments
// compare measured times against it.
func (p Params) GapTime(h int64) int64 {
	return p.G * h
}

// HRelationTime returns 2o + G·(h−1) + L, the optimal stall-free time
// of a balanced h-relation on the LogP machine (h ≥ 1): the first
// message costs o at each end plus L in flight, and each further
// message adds one gap. Experiment code must use this helper rather
// than re-deriving the formula, so the (h−1) and the two overhead
// terms cannot drift from the paper.
func (p Params) HRelationTime(h int64) int64 {
	return 2*p.O + p.G*(h-1) + p.L
}

// StallWindow returns L + G·Capacity(), the length of the wave window
// used to stagger senders into capacity-bounded groups: a wave of
// Capacity() messages to one destination occupies its capacity slots
// for at most L after the last submission, and the submissions
// themselves are G apart.
func (p Params) StallWindow() int64 {
	return p.L + p.G*p.Capacity()
}

// SubmitAt returns t − o: the instant a processor must start preparing
// (WaitUntil) so that the following Send's submission instant lands
// exactly at t. The overhead o precedes the submission (Section 2.2).
func (p Params) SubmitAt(t int64) int64 {
	return t - p.O
}

// Validate reports whether the parameters satisfy the constraints the
// paper argues are necessary for a realizable machine:
// P >= 1 and max(2, O) <= G <= L, with O >= 1.
func (p Params) Validate() error {
	if p.P < 1 {
		return fmt.Errorf("logp: P = %d, need at least one processor", p.P)
	}
	if p.O < 1 {
		return fmt.Errorf("logp: o = %d, overhead must be at least 1", p.O)
	}
	if p.G < 2 {
		return fmt.Errorf("logp: G = %d violates G >= 2 (Section 2.2)", p.G)
	}
	if p.G < p.O {
		return fmt.Errorf("logp: G = %d < o = %d violates G >= o", p.G, p.O)
	}
	if p.G > p.L {
		return fmt.Errorf("logp: G = %d > L = %d violates G <= L (unbounded buffers otherwise)", p.G, p.L)
	}
	return nil
}

// String renders the parameters compactly, e.g. "LogP(p=16 L=32 o=2 G=4)".
func (p Params) String() string {
	return fmt.Sprintf("LogP(p=%d L=%d o=%d G=%d)", p.P, p.L, p.O, p.G)
}

// Message is the unit of communication. Payload and Aux carry two
// machine words, which is enough for every protocol in this repository
// (value plus rank, key plus tag data, and so on); Tag multiplexes
// protocol phases sharing a processor's input buffer.
//
// Body optionally carries an opaque application payload. The cost model
// treats every message as a constant number of machine words regardless
// of Body — the field exists so higher layers (e.g. the BSP-on-LogP
// cross-simulator, which transports one fixed-size BSP message per LogP
// message, exactly as the paper's simulation does) can move their unit
// of data without re-encoding it into Payload/Aux.
type Message struct {
	Src, Dst int
	Tag      int32
	Payload  int64
	Aux      int64
	Body     interface{}
}
