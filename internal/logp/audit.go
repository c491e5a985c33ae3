package logp

import (
	"fmt"
	"math/bits"
	"sync"
)

// latencyBuckets is the fixed size of the submit->deliver latency
// histogram: bucket k counts messages whose latency lies in
// [2^k, 2^(k+1)). Latencies are >= 1 (delivery is strictly after
// acceptance), and 2^31 cycles is far beyond any simulated run.
const latencyBuckets = 32

// maxRecordedViolations bounds how many violation messages an Auditor
// (and the process-wide audit summary) retains verbatim; the count is
// always exact.
const maxRecordedViolations = 16

// Metrics is the structured accounting an Auditor accumulates while
// streaming a run's events: where the capacity was spent, who stalled,
// and how the delivery latencies were distributed.
type Metrics struct {
	// Events counts every observed trace event.
	Events int64 `json:"events"`
	// Messages counts submissions; Delivered and Acquired count how
	// many of them reached the destination buffer and the program.
	Messages  int64 `json:"messages"`
	Delivered int64 `json:"delivered"`
	Acquired  int64 `json:"acquired"`
	// StallEvents/StallCycles re-derive the engine's stall accounting
	// from the trace alone (acceptance instant minus submission
	// instant, summed over stalled messages); Finish cross-checks them
	// against the Result.
	StallEvents int64 `json:"stallEvents"`
	StallCycles int64 `json:"stallCycles"`
	// MaxOccupancy is the high-water mark of accepted-but-undelivered
	// messages in transit to any single destination (bounded by
	// Capacity in a valid run); OccupancyHist[o] counts acceptances
	// that raised a destination's occupancy to exactly o.
	MaxOccupancy  int64   `json:"maxOccupancy"`
	OccupancyHist []int64 `json:"occupancyHist"`
	// Submit->deliver latency distribution: LatencyHist[k] counts
	// deliveries with latency in [2^k, 2^(k+1)); SumLatency/Delivered
	// is the mean, MaxLatency the worst observed.
	MaxLatency  int64   `json:"maxLatency"`
	SumLatency  int64   `json:"sumLatency"`
	LatencyHist []int64 `json:"latencyHist"`
	// MaxBufferDepth is the peak number of delivered-but-unacquired
	// messages at one destination, re-derived from the trace.
	MaxBufferDepth int64 `json:"maxBufferDepth"`
	// Per-processor breakdowns (absent from merged summaries, whose
	// runs may have different P): stall cycles attributed to each
	// sender, and each destination's occupancy high-water mark.
	ProcStallCycles    []int64 `json:"procStallCycles,omitempty"`
	OccupancyHighWater []int64 `json:"occupancyHighWater,omitempty"`
}

// merge folds o into m, dropping the per-processor slices (runs being
// merged may have different processor counts).
func (m *Metrics) merge(o *Metrics) {
	m.Events += o.Events
	m.Messages += o.Messages
	m.Delivered += o.Delivered
	m.Acquired += o.Acquired
	m.StallEvents += o.StallEvents
	m.StallCycles += o.StallCycles
	m.SumLatency += o.SumLatency
	if o.MaxOccupancy > m.MaxOccupancy {
		m.MaxOccupancy = o.MaxOccupancy
	}
	if o.MaxLatency > m.MaxLatency {
		m.MaxLatency = o.MaxLatency
	}
	if o.MaxBufferDepth > m.MaxBufferDepth {
		m.MaxBufferDepth = o.MaxBufferDepth
	}
	if len(o.OccupancyHist) > len(m.OccupancyHist) {
		grown := make([]int64, len(o.OccupancyHist))
		copy(grown, m.OccupancyHist)
		m.OccupancyHist = grown
	}
	for i, v := range o.OccupancyHist {
		m.OccupancyHist[i] += v
	}
	if m.LatencyHist == nil {
		m.LatencyHist = make([]int64, latencyBuckets)
	}
	for i, v := range o.LatencyHist {
		m.LatencyHist[i] += v
	}
	m.ProcStallCycles = nil
	m.OccupancyHighWater = nil
}

func latencyBucket(lat int64) int {
	if lat < 1 {
		lat = 1
	}
	b := bits.Len64(uint64(lat)) - 1
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	return b
}

// auditMsg is the per-message lifecycle state an Auditor keeps between
// a message's submission and its acquisition (or the end of the run).
type auditMsg struct {
	submit, accept, deliver int64
	stage                   uint8 // 1 submitted, 2 accepted, 3 delivered
}

// Auditor enforces the LogP model invariants over a run's event stream
// online, in O(1) amortized work per event and memory proportional to
// the number of in-flight (and delivered-but-unacquired) messages —
// never the full trace. Attach it with WithEventLog(a.Observe), then
// call Finish with the run's Result to run the end-of-trace sweep and
// the stall-attribution cross-check.
//
// Observe relies on the engine's emission order (the order WithEventLog
// delivers): per-message events in lifecycle order, accept/deliver
// events globally nondecreasing in time with same-instant deliveries
// first, and each processor's communication operations (its submissions
// and acquisitions) nondecreasing in time. Hand-built streams fed in
// another order should use CheckTrace, which sorts first and then
// replays them through an Auditor.
//
// The checks are the ones CheckTrace documents: lifecycle ordering, the
// delivery window (accept, accept+L], the combined per-processor gap,
// per-destination capacity occupancy, one delivery per destination per
// instant, processor ids in range, and (under
// TraceOptions.RequireAcquired) no message left unacquired in a
// buffer.
type Auditor struct {
	params Params
	opts   TraceOptions
	sink   func(Event)

	msgs        map[int64]*auditMsg
	lastComm    []int64 // per processor, last submission-or-acquisition instant
	hasComm     []bool
	inTransit   []int64 // per destination, accepted-but-undelivered
	lastDeliver []int64 // per destination, last delivery instant (-1 none)
	bufDepth    []int64 // per destination, delivered-but-unacquired
	maxDeliver  int64

	metrics    Metrics
	violations []string
	violCount  int64
	finished   bool
}

// NewAuditor builds a streaming auditor for runs of machines with the
// given parameters.
func NewAuditor(params Params, opts TraceOptions) *Auditor {
	a := &Auditor{
		params:      params,
		opts:        opts,
		msgs:        make(map[int64]*auditMsg),
		lastComm:    make([]int64, params.P),
		hasComm:     make([]bool, params.P),
		inTransit:   make([]int64, params.P),
		lastDeliver: make([]int64, params.P),
		bufDepth:    make([]int64, params.P),
	}
	for i := range a.lastDeliver {
		a.lastDeliver[i] = -1
	}
	a.metrics.OccupancyHist = make([]int64, params.Capacity()+1)
	a.metrics.LatencyHist = make([]int64, latencyBuckets)
	a.metrics.ProcStallCycles = make([]int64, params.P)
	a.metrics.OccupancyHighWater = make([]int64, params.P)
	return a
}

func (a *Auditor) fail(format string, args ...interface{}) {
	a.violCount++
	if len(a.violations) < maxRecordedViolations {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	}
}

// comm advances proc's merged communication-gap stream to instant t.
func (a *Auditor) comm(proc int, t int64, kind EventKind) {
	if a.hasComm[proc] && t-a.lastComm[proc] < a.params.G {
		a.fail("processor %d communication operations %d apart at t=%d (%s), gap %d required",
			proc, t-a.lastComm[proc], t, kind, a.params.G)
	}
	a.hasComm[proc] = true
	a.lastComm[proc] = t
}

// Observe consumes one event. It is the machine's event sink: pass it
// to WithEventLog. An event naming a processor outside [0, P) is a
// violation and is otherwise skipped.
func (a *Auditor) Observe(ev Event) {
	a.metrics.Events++
	if src, dst := ev.Msg.Src, ev.Msg.Dst; src < 0 || src >= a.params.P || dst < 0 || dst >= a.params.P {
		a.fail("message %d %s at t=%d names processors %d->%d outside [0, %d)", ev.Seq, ev.Kind, ev.Time, src, dst, a.params.P)
	} else {
		a.check(ev)
	}
	if a.sink != nil {
		a.sink(ev)
	}
}

// check applies ev to the lifecycle, gap, capacity, and accounting
// state.
func (a *Auditor) check(ev Event) {
	switch ev.Kind {
	case EvSubmit:
		if _, dup := a.msgs[ev.Seq]; dup {
			a.fail("message %d submitted twice", ev.Seq)
			break
		}
		//lint:ignore allocdiscipline audit bookkeeping: one tracking record per in-flight message; audited runs trade allocation for verification
		a.msgs[ev.Seq] = &auditMsg{submit: ev.Time, stage: 1}
		a.metrics.Messages++
		a.comm(ev.Msg.Src, ev.Time, ev.Kind)
	case EvAccept:
		st := a.msgs[ev.Seq]
		if st == nil || st.stage != 1 {
			a.fail("message %d accepted out of order", ev.Seq)
			break
		}
		if ev.Time < st.submit {
			a.fail("message %d accepted at %d before its submission at %d", ev.Seq, ev.Time, st.submit)
		}
		st.accept = ev.Time
		st.stage = 2
		if ev.Time > st.submit {
			a.metrics.StallEvents++
			a.metrics.StallCycles += ev.Time - st.submit
			a.metrics.ProcStallCycles[ev.Msg.Src] += ev.Time - st.submit
		}
		d := ev.Msg.Dst
		a.inTransit[d]++
		occ := a.inTransit[d]
		if occ > a.params.Capacity() {
			a.fail("%d messages in transit to processor %d at t=%d, capacity %d", occ, d, ev.Time, a.params.Capacity())
		}
		if occ > a.metrics.OccupancyHighWater[d] {
			a.metrics.OccupancyHighWater[d] = occ
		}
		if occ > a.metrics.MaxOccupancy {
			a.metrics.MaxOccupancy = occ
		}
		if occ >= 0 && occ < int64(len(a.metrics.OccupancyHist)) {
			a.metrics.OccupancyHist[occ]++
		}
	case EvDeliver:
		st := a.msgs[ev.Seq]
		if st == nil || st.stage != 2 {
			a.fail("message %d delivered out of order", ev.Seq)
			break
		}
		if ev.Time <= st.accept || ev.Time > st.accept+a.params.L {
			a.fail("message %d delivered at %d, accepted at %d, outside (accept, accept+L]", ev.Seq, ev.Time, st.accept)
		}
		d := ev.Msg.Dst
		if a.lastDeliver[d] == ev.Time {
			a.fail("two deliveries to processor %d at instant %d", d, ev.Time)
		}
		a.lastDeliver[d] = ev.Time
		st.deliver = ev.Time
		st.stage = 3
		a.inTransit[d]--
		a.bufDepth[d]++
		if a.bufDepth[d] > a.metrics.MaxBufferDepth {
			a.metrics.MaxBufferDepth = a.bufDepth[d]
		}
		if ev.Time > a.maxDeliver {
			a.maxDeliver = ev.Time
		}
		a.metrics.Delivered++
		lat := ev.Time - st.submit
		a.metrics.SumLatency += lat
		if lat > a.metrics.MaxLatency {
			a.metrics.MaxLatency = lat
		}
		a.metrics.LatencyHist[latencyBucket(lat)]++
	case EvAcquire:
		st := a.msgs[ev.Seq]
		if st == nil || st.stage != 3 {
			a.fail("message %d acquired out of order", ev.Seq)
			break
		}
		if ev.Time < st.deliver {
			a.fail("message %d acquired at %d before its delivery at %d", ev.Seq, ev.Time, st.deliver)
		}
		a.comm(ev.Msg.Dst, ev.Time, ev.Kind)
		a.bufDepth[ev.Msg.Dst]--
		a.metrics.Acquired++
		delete(a.msgs, ev.Seq)
	}
}

// Finish runs the end-of-trace sweep and cross-checks the
// trace-derived accounting against the engine's Result. It returns the
// first violation observed over the whole run, or nil.
func (a *Auditor) Finish(res Result) error {
	if a.finished {
		return a.Err()
	}
	a.finished = true
	a.sweep()
	if a.metrics.Messages != res.MessagesSent {
		a.fail("trace has %d submissions, Result.MessagesSent = %d", a.metrics.Messages, res.MessagesSent)
	}
	if a.metrics.StallEvents != res.StallEvents {
		a.fail("trace shows %d stalled acceptances, Result.StallEvents = %d", a.metrics.StallEvents, res.StallEvents)
	}
	if a.metrics.StallCycles != res.StallCycles {
		a.fail("trace shows %d stall cycles, Result.StallCycles = %d", a.metrics.StallCycles, res.StallCycles)
	}
	if a.metrics.MaxBufferDepth != int64(res.MaxBufferDepth) {
		a.fail("trace buffer high-water %d, Result.MaxBufferDepth = %d", a.metrics.MaxBufferDepth, res.MaxBufferDepth)
	}
	if a.metrics.Delivered > 0 && a.maxDeliver != res.LastDelivery {
		a.fail("trace last delivery at %d, Result.LastDelivery = %d", a.maxDeliver, res.LastDelivery)
	}
	return a.Err()
}

// sweep is the end-of-trace check: undelivered messages always fail,
// delivered-but-unacquired ones fail under RequireAcquired, and each
// report names the lowest such message.
func (a *Auditor) sweep() {
	var undelivered, unacquired int64
	firstUndelivered, firstUnacquired := int64(-1), int64(-1)
	for seq, st := range a.msgs {
		if st.stage < 3 {
			undelivered++
			if firstUndelivered < 0 || seq < firstUndelivered {
				firstUndelivered = seq
			}
		} else if a.opts.RequireAcquired {
			unacquired++
			if firstUnacquired < 0 || seq < firstUnacquired {
				firstUnacquired = seq
			}
		}
	}
	if undelivered > 0 {
		a.fail("%d messages never delivered (first: message %d)", undelivered, firstUndelivered)
	}
	if unacquired > 0 {
		a.fail("%d messages delivered but never acquired (first: message %d)", unacquired, firstUnacquired)
	}
}

// Err returns the first violation observed so far, or nil.
func (a *Auditor) Err() error {
	if a.violCount == 0 {
		return nil
	}
	return fmt.Errorf("logp: audit: %s", a.violations[0])
}

// Violations returns the recorded violation messages (capped at
// maxRecordedViolations; ViolationCount is exact).
func (a *Auditor) Violations() []string { return append([]string(nil), a.violations...) }

// ViolationCount returns the exact number of violations observed.
func (a *Auditor) ViolationCount() int64 { return a.violCount }

// Metrics returns the accumulated metrics. The returned pointer aliases
// the auditor's state; read it after the run completes.
func (a *Auditor) Metrics() *Metrics { return &a.metrics }

// --- Process-wide audit hook -------------------------------------------

// AuditConfig configures the process-wide audit hook.
type AuditConfig struct {
	// RequireAcquired applies TraceOptions.RequireAcquired to every
	// audited run.
	RequireAcquired bool
	// Sink, when set, additionally receives every audited event (after
	// auditing) — e.g. a JSONL trace writer. It is called from
	// whichever goroutine runs the machine; serialize externally if
	// machines run concurrently.
	Sink func(Event)
}

// AuditSummary aggregates audit outcomes across runs.
type AuditSummary struct {
	// Runs counts audited Machine.Run executions.
	Runs int64 `json:"runs"`
	// Metrics is the merged accounting of all audited runs (without
	// per-processor slices, whose lengths vary across machines).
	Metrics Metrics `json:"metrics"`
	// ViolationCount is exact; Violations retains at most
	// maxRecordedViolations messages verbatim.
	ViolationCount int64    `json:"violationCount"`
	Violations     []string `json:"violations,omitempty"`
}

var (
	auditMu  sync.Mutex
	auditCfg *AuditConfig
	auditAgg AuditSummary
)

// EnableAudit turns on the process-wide audit hook: every subsequent
// Machine.Run (until DisableAudit) streams its events through a fresh
// Auditor, and the outcome is merged into an aggregate summary readable
// via TakeAuditSummary. Machines built deep inside experiment code are
// covered — no plumbing required. Auditing is opt-in: with the hook off
// and no WithEventLog sink, the engine's event path stays a pair of nil
// checks.
func EnableAudit(cfg AuditConfig) {
	auditMu.Lock()
	defer auditMu.Unlock()
	auditCfg = &cfg
	auditAgg = AuditSummary{}
}

// DisableAudit turns the process-wide audit hook off. Runs already in
// flight keep their auditors and still merge into the summary.
func DisableAudit() {
	auditMu.Lock()
	defer auditMu.Unlock()
	auditCfg = nil
}

// TakeAuditSummary returns the audit aggregate accumulated since
// EnableAudit (or the previous Take) and resets it, so callers can
// attribute outcomes per workload.
func TakeAuditSummary() AuditSummary {
	auditMu.Lock()
	defer auditMu.Unlock()
	s := auditAgg
	auditAgg = AuditSummary{}
	return s
}

// newRunAuditor builds the per-run auditor when the process-wide hook
// is enabled, or returns nil.
func newRunAuditor(params Params) *Auditor {
	auditMu.Lock()
	defer auditMu.Unlock()
	if auditCfg == nil {
		return nil
	}
	a := NewAuditor(params, TraceOptions{RequireAcquired: auditCfg.RequireAcquired})
	a.sink = auditCfg.Sink
	return a
}

// finishRunAudit finalizes a run's auditor and merges it into the
// process-wide summary.
func finishRunAudit(a *Auditor, res Result) {
	a.Finish(res)
	auditMu.Lock()
	defer auditMu.Unlock()
	auditAgg.Runs++
	auditAgg.Metrics.merge(&a.metrics)
	auditAgg.ViolationCount += a.violCount
	for _, v := range a.violations {
		if len(auditAgg.Violations) >= maxRecordedViolations {
			break
		}
		auditAgg.Violations = append(auditAgg.Violations, v)
	}
}
