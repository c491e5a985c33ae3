package main

import (
	"bufio"
	"fmt"
	"math"
	"os/exec"
	"strings"
	"time"
)

// opEnv is what an op writes to: its simulated outputs for the digest,
// the per-layer counters, and, in a traced run, its spans.
type opEnv struct {
	out []int64
	c   counters
	tr  *tracer // nil when tracing is off
	op  int
}

func (e *opEnv) put(vs ...int64) { e.out = append(e.out, vs...) }

func (e *opEnv) putFloat(f float64) { e.out = append(e.out, int64(math.Float64bits(f))) }

// begin opens a span around a call into a layer and returns its index,
// or -1 when tracing is off.
func (e *opEnv) begin(name, layer string) int {
	if e.tr == nil {
		return -1
	}
	return e.tr.begin(name, layer, e.op)
}

func (e *opEnv) end(i int) {
	if e.tr != nil {
		e.tr.end(i)
	}
}

// counters are the per-layer work counts the ops report, whatever the
// tracing mode: summed over every op run.
type counters struct {
	stallEvents    int64 // logp Result.StallEvents
	randRuns       int64 // randomized-router runs
	randStallRuns  int64 // randomized-router runs with a stall
	thm1Msgs       int64 // messages replayed by the Theorem 1 engine
	thm1Cycles     int64
	thm1Overloaded int64 // replay cycles over capacity
	pairs          int64 // relation pairs drawn
}

func (c counters) sub(d counters) counters {
	return counters{
		c.stallEvents - d.stallEvents, c.randRuns - d.randRuns, c.randStallRuns - d.randStallRuns,
		c.thm1Msgs - d.thm1Msgs, c.thm1Cycles - d.thm1Cycles, c.thm1Overloaded - d.thm1Overloaded,
		c.pairs - d.pairs,
	}
}

// span is one call into a layer, or one whole op (layer "op"). Times
// are nanoseconds since the tracer started; Parent indexes the op span
// the call ran in, -1 for op spans and set-up calls.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	opSpan int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), opSpan: -1} }

func (t *tracer) begin(name, layer string, op int) int {
	parent := t.opSpan
	if layer == "op" {
		parent = -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: op, Start: int64(time.Since(t.t0)), Parent: parent})
	i := len(t.spans) - 1
	if layer == "op" {
		t.opSpan = i
	}
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	if i == t.opSpan {
		t.opSpan = -1
	}
}

// durations sums span time by name, in nanoseconds.
func (t *tracer) durations() map[string]float64 {
	d := map[string]float64{}
	for _, s := range t.spans {
		d[s.Name] += float64(s.End - s.Start)
	}
	return d
}

// pprofTop runs `go tool pprof -top` on a CPU profile and returns its
// text, every node included.
func pprofTop(profile string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// foldTop folds `pprof -top` flat values by the package of the leaf
// frame, as fractions of the total flat time. Coroutine switching
// (iter.* and runtime.coro*) is its own bucket, "coro", apart from
// "runtime"; repro/internal/<pkg> folds to <pkg>.
func foldTop(text string) (map[string]float64, error) {
	fold := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := parseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		fold[leafPackage(strings.Join(f[5:], " "))] += v
		total += v
	}
	if !inTable {
		return nil, fmt.Errorf("no pprof -top table in output")
	}
	if total > 0 {
		for k := range fold {
			fold[k] /= total
		}
	}
	return fold, nil
}

// parseDuration reads pprof's flat column: "1.20s", "350ms", "0".
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}

// leafPackage maps a pprof function name to the benchmark's layer
// buckets: repro/internal/<pkg> to <pkg>, the runtime's internal
// packages to "runtime", and this package to "benchmark".
func leafPackage(fn string) string {
	if strings.HasPrefix(fn, "iter.") || strings.HasPrefix(fn, "runtime.coro") {
		return "coro"
	}
	// Type arguments and the " (inline)" marker may hold '/' and '.'.
	if i := strings.IndexAny(fn, "[ "); i >= 0 {
		fn = fn[:i]
	}
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "benchmark"
	}
	return pkg
}
