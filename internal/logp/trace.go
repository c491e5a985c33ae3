package logp

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// totalSimEvents accumulates, across every Machine in the process, the
// number of simulated events committed: medium events (submissions and
// deliveries) plus executed processor operations. The benchmark
// harness samples it around an experiment to report simulated
// events/sec, including events from machines constructed deep inside
// the cross-simulators.
var totalSimEvents atomic.Int64

func addSimEvents(n int64) { totalSimEvents.Add(n) }

// SimEventCount returns the cumulative number of simulated events
// committed by all LogP machines in this process. Take a delta around
// a workload to measure its simulation throughput.
func SimEventCount() int64 { return totalSimEvents.Load() }

// EventKind labels a point in a message's lifecycle.
type EventKind uint8

const (
	// EvSubmit: the sender placed the message in its output register
	// (the submission instant, after the o preparation overhead).
	EvSubmit EventKind = iota
	// EvAccept: the medium accepted the message, possibly after a
	// stalling delay.
	EvAccept
	// EvDeliver: the message arrived in the destination's input
	// buffer.
	EvDeliver
	// EvAcquire: the receiving processor acquired the message (the
	// acquisition instant; the o overhead follows).
	EvAcquire
)

func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvAccept:
		return "accept"
	case EvDeliver:
		return "deliver"
	case EvAcquire:
		return "acquire"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one traced point of a message's lifecycle. Seq identifies
// the message across its events (assigned at submission).
type Event struct {
	Time int64
	Kind EventKind
	Seq  int64
	Msg  Message
}

// WithEventLog installs fn as the machine's event sink. fn runs
// synchronously inside the engine; it must not call back into the
// machine.
func WithEventLog(fn func(Event)) Option {
	return func(m *Machine) { m.eventLog = fn }
}

// TraceOptions selects optional end-state policies for CheckTrace.
type TraceOptions struct {
	// RequireAcquired makes the end-of-trace sweep reject messages
	// that were delivered into the destination's input buffer but
	// never acquired by the program. Off by default: a program is
	// free to terminate with unread buffered messages, but the
	// audited experiment suite turns this on so dropped deliveries
	// cannot pass silently.
	RequireAcquired bool
}

// CheckTrace validates the LogP model invariants over a completed
// run's event stream:
//
//   - every message's events appear in submit/accept/deliver order,
//     with acquire (if the program received it) last;
//   - delivery happens within (accept, accept+L];
//   - consecutive communication operations (submissions and
//     acquisitions combined) of one processor are >= G apart;
//   - at any instant at most Capacity() accepted-but-undelivered
//     messages target one destination;
//   - at most one message is delivered per destination per instant;
//   - every event names processors in [0, P).
//
// It returns the first violation found, or nil. The machine enforces
// all of this internally; CheckTrace exists so that tests (and users
// instrumenting their own programs) can verify it end to end.
//
// Events are re-sorted into the model's evaluation order (modelOrder)
// and replayed through an Auditor, so the post-hoc check and the
// streaming one are a single implementation of the invariant set.
func CheckTrace(params Params, events []Event) error {
	return CheckTraceOpts(params, events, TraceOptions{})
}

// CheckTraceOpts is CheckTrace with an explicit end-state policy.
func CheckTraceOpts(params Params, events []Event, opts TraceOptions) error {
	a := NewAuditor(params, opts)
	for _, ev := range modelOrder(events) {
		a.Observe(ev)
	}
	a.sweep()
	return a.Err()
}

// modelOrder returns a copy of events stably sorted by time (the
// engine emits them in commit order, which interleaves instants), with
// ties within an instant in the model's evaluation order: deliveries
// free capacity before submissions queue, acceptances take slots, and
// acquisitions come last.
func modelOrder(events []Event) []Event {
	rank := func(k EventKind) int {
		switch k {
		case EvDeliver:
			return 0
		case EvSubmit:
			return 1
		case EvAccept:
			return 2
		default: // EvAcquire
			return 3
		}
	}
	sorted := slices.Clone(events)
	slices.SortStableFunc(sorted, func(a, b Event) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(rank(a.Kind), rank(b.Kind))
	})
	return sorted
}
