package main

// endToEnd are the metrics a user of the simulators sees, measured
// with tracing off. Op times are in units of the reference kernel run
// just before each op ("ref", see ref.go): op_p50_ref is the median of
// those ratios, ops_per_kref the ops completed per thousand
// reference-kernel times. setup_s is scaled to the reference speed the
// same way (refNominalMs). bound is the share of the parent's median by
// which a metric may worsen before a change counts as a regression;
// the same values are in BENCHMARK.json.
var endToEnd = []struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}{
	{"setup_s", "s", false, 0.25},
	{"op_p50_ref", "ref", false, 0.20},
	{"op_p90_ref", "ref", false, 0.25},
	{"ops_per_kref", "1/kref", true, 0.25},
	{"retained_mb", "MB", false, 0.05},
}

// layerCounts is what a traced half-run measured, from which every
// per-layer metric is derived.
type layerCounts struct {
	ops      float64 // traced ops
	c        counters
	events   float64            // logp simulated events (SimEventCount delta)
	hops     float64            // netsim link traversals (SimHopCount delta)
	span     map[string]float64 // ns in traced ops, by span name
	setup    map[string]float64 // ns in set-up calls, by span name, over setupReps builds
	fold     map[string]float64 // CPU share by leaf-frame package
	allocB   float64            // bytes allocated over the untraced half
	plainN   float64            // untraced ops
	gcFrac   float64            // GC share of CPU over the untraced half
	overhead float64            // traced p50 over untraced p50, minus 1
}

func (l *layerCounts) ns(names ...string) float64 {
	t := 0.0
	for _, n := range names {
		t += l.span[n]
	}
	return t
}

func (l *layerCounts) perOpMs(names ...string) float64 { return l.ns(names...) / l.ops / 1e6 }

func (l *layerCounts) perOp(n int64) float64 { return float64(n) / l.ops }

// ratio is a/b, or 0 where the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var (
	logpSpans     = []string{"logp.Run", "logp.RunScript"}
	thm2Spans     = []string{"core.det.Run", "core.rand.Run", "core.offline.Run"}
	relationSpans = []string{"relation.RandomRegular", "relation.Grouping.Group", "relation.RandomRegularStream.Reset"}
	thm1Span      = "core.LogPOnBSP.RunScript"
	measureSpan   = "netsim.MeasureGL"
)

// perLayer lists the per-layer metrics of a traced run. A layer that
// does not run on a workload reads 0 there. Self fractions are shares
// of CPU samples whose leaf frame is in the layer's package.
var perLayer = []struct {
	name, unit string
	f          func(l *layerCounts) float64
}{
	{"logp.run_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs(logpSpans...) }},
	{"logp.events_per_op", "events/op", func(l *layerCounts) float64 { return l.events / l.ops }},
	// The Program-form engine runs inside the BSP-on-LogP routers, so
	// their calls count as engine time per event too.
	{"logp.ns_per_event", "ns/event", func(l *layerCounts) float64 {
		return ratio(l.ns(logpSpans...)+l.ns(thm2Spans...), l.events)
	}},
	{"logp.stall_events_per_op", "stalls/op", func(l *layerCounts) float64 { return l.perOp(l.c.stallEvents) }},
	{"logp.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["logp"] }},
	{"core.det.run_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs("core.det.Run") }},
	{"core.rand.run_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs("core.rand.Run") }},
	{"core.offline.run_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs("core.offline.Run") }},
	{"core.rand.stall_run_frac", "frac", func(l *layerCounts) float64 {
		return ratio(float64(l.c.randStallRuns), float64(l.c.randRuns))
	}},
	{"core.thm1.run_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs(thm1Span) }},
	{"core.thm1.ns_per_msg", "ns/msg", func(l *layerCounts) float64 { return ratio(l.ns(thm1Span), float64(l.c.thm1Msgs)) }},
	{"core.thm1.cycles_per_op", "cycles/op", func(l *layerCounts) float64 { return l.perOp(l.c.thm1Cycles) }},
	{"core.thm1.overloaded_cycle_frac", "frac", func(l *layerCounts) float64 {
		return ratio(float64(l.c.thm1Overloaded), float64(l.c.thm1Cycles))
	}},
	{"core.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["core"] }},
	{"relation.gen_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs(relationSpans...) }},
	{"relation.pairs_per_op", "pairs/op", func(l *layerCounts) float64 { return l.perOp(l.c.pairs) }},
	{"relation.ns_per_pair", "ns/pair", func(l *layerCounts) float64 { return ratio(l.ns(relationSpans...), float64(l.c.pairs)) }},
	{"relation.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["relation"] }},
	{"netsim.measure_ms", "ms/op", func(l *layerCounts) float64 { return l.perOpMs(measureSpan) }},
	{"netsim.hops_per_op", "hops/op", func(l *layerCounts) float64 { return l.hops / l.ops }},
	{"netsim.ns_per_hop", "ns/hop", func(l *layerCounts) float64 { return ratio(l.ns(measureSpan), l.hops) }},
	{"netsim.new_ms", "ms/setup", func(l *layerCounts) float64 { return l.setup["netsim.New"] / setupReps / 1e6 }},
	{"topology.build_ms", "ms/setup", func(l *layerCounts) float64 { return l.setup["topology.build"] / setupReps / 1e6 }},
	{"netsim.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["netsim"] }},
	{"topology.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["topology"] }},
	{"collective.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["collective"] }},
	{"stats.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["stats"] }},
	{"runtime.alloc_bytes_per_op", "B/op", func(l *layerCounts) float64 { return l.allocB / l.plainN }},
	{"runtime.gc_cpu_frac", "frac", func(l *layerCounts) float64 { return l.gcFrac }},
	{"runtime.coro_frac", "frac", func(l *layerCounts) float64 { return l.fold["coro"] }},
	{"runtime.self_frac", "frac", func(l *layerCounts) float64 { return l.fold["runtime"] }},
	{"trace.overhead_frac", "frac", func(l *layerCounts) float64 { return l.overhead }},
}

func (l *layerCounts) metrics() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metric{d.f(l), d.unit}
	}
	return m
}
