package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/logp"
	"repro/internal/netsim"
)

// BenchResult records the benchmark measurements of one experiment:
// wall time, simulation throughput (LogP events committed per second
// of wall time, sampled from logp.SimEventCount so machines built deep
// inside the cross-simulators are included; packet-network link
// traversals per second likewise via netsim.SimHopCount), and heap
// traffic.
type BenchResult struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Quick and Count are the row's own provenance: whether it was
	// measured at the -quick sizes, and how many repetitions its
	// figures are the median of. A merged report mixes rows from
	// several runs, so the report header cannot vouch for them.
	Quick        bool    `json:"quick"`
	Count        int     `json:"count"`
	WallNanos    int64   `json:"wallNanos"`
	SimEvents    int64   `json:"simEvents"`
	EventsPerSec float64 `json:"eventsPerSec"`
	NetHops      int64   `json:"netHops"`
	HopsPerSec   float64 `json:"hopsPerSec"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"allocBytes"`
	Rows         int     `json:"rows"`
	// Procs and BytesPerProc are reported by the scale experiments:
	// the processor count the run used (Experiment.RunProcs) and the
	// allocation traffic normalized by it, the figure that separates
	// the O(active) sparse engines from anything paying O(p) per event.
	Procs        int     `json:"procs,omitempty"`
	BytesPerProc float64 `json:"bytesPerProc,omitempty"`
	// HeapSysPeak is the largest heap footprint the runtime held from
	// the OS net of pages returned to it (runtime.MemStats HeapSys -
	// HeapReleased) observed right after any repetition of a scale
	// experiment — the resident-memory proxy the p = 10^6 targets are
	// stated against. RunBench scopes the warm pool per experiment and
	// returns retired pools to the OS between experiments, so the
	// figure describes one experiment's residency, not the cumulative
	// address-space high water of the whole report run. Zero for the
	// regular suite.
	HeapSysPeak uint64 `json:"heapSysPeak,omitempty"`
}

// BenchReport is the top-level schema of BENCH_logp.json. Reports from
// different checkouts or machines are compared result by result, keyed
// on experiment ID; wallNanos and eventsPerSec carry the trajectory,
// allocs/allocBytes explain it. The header (Go version, Quick, Count,
// StartedAt) describes the run that last wrote the report; each result
// carries its own Quick and Count, since MergeReports keeps rows from
// earlier runs.
type BenchReport struct {
	GoVersion      string        `json:"goVersion"`
	GOOS           string        `json:"goos"`
	GOARCH         string        `json:"goarch"`
	Quick          bool          `json:"quick"`
	Seed           uint64        `json:"seed"`
	Count          int           `json:"count"`
	StartedAt      string        `json:"startedAt"`
	TotalWallNanos int64         `json:"totalWallNanos"`
	Results        []BenchResult `json:"results"`
}

// RunBench benchmarks the given experiments (all of them when ids is
// empty) under cfg and returns the report, running each experiment
// count times (count < 1 reads as 1) and reporting the median wall
// time; a GC fence before each repetition keeps the allocation deltas
// attributable. Experiments are deterministic functions of the seed —
// every machine inside them is freshly constructed — so repetitions
// replay identical event streams and the median isolates scheduler and
// allocator noise, not simulation variance. Allocation deltas are also
// medians, taken independently of the wall-time median.
func RunBench(cfg Config, ids []string, count int) (*BenchReport, error) {
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		for _, id := range ids {
			e, ok := Lookup(id)
			if !ok {
				return nil, fmt.Errorf("bench: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	if count < 1 {
		count = 1
	}
	callerWarm := cfg.Warm
	rep := &BenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     cfg.Quick,
		Seed:      cfg.Seed,
		Count:     count,
		// Wall-clock is the measurement here, not simulated time: the
		// benchmark report records how fast the host executes the
		// deterministic simulation, so the clock reads are intentional.
		//lint:ignore determinism benchmark report timestamps are wall-clock by design
		StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
	var ms0, ms1 runtime.MemStats
	walls := make([]int64, count)
	allocs := make([]uint64, count)
	allocBytes := make([]uint64, count)
	for _, e := range exps {
		if callerWarm == nil {
			// Benchmarks measure the steady state, not construction: a
			// warm pool lets repetitions past the first reuse simulators
			// and machines, so with count >= 2 the median allocation
			// figures describe a warm run. Tables are byte-identical
			// either way. The pool is scoped per experiment — one shared
			// pool would keep every experiment's machines resident at
			// once, and at p = 10^6 that turns HeapSysPeak into a
			// cumulative figure instead of one experiment's footprint.
			// FreeOSMemory returns the previous experiment's retired
			// pools to the OS so HeapReleased reflects them before the
			// first repetition measures.
			cfg.Warm = NewWarm()
			debug.FreeOSMemory()
		}
		var r BenchResult
		var heapPeak uint64
		for it := 0; it < count; it++ {
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			ev0 := logp.SimEventCount()
			hp0 := netsim.SimHopCount()
			//lint:ignore determinism wall-clock benchmarking of the host is the point of -bench
			start := time.Now()
			// The label tags every CPU profile sample of the run, the
			// program coroutines and MeasureGL's workers included (they
			// inherit it), so -tagfocus experiment=<ID> splits a
			// -cpuprofile by experiment.
			var tab *Table
			pprof.Do(context.Background(), pprof.Labels("experiment", e.ID), func(context.Context) {
				tab = e.Run(cfg)
			})
			//lint:ignore determinism wall-clock benchmarking of the host is the point of -bench
			wall := time.Since(start)
			ev1 := logp.SimEventCount()
			hp1 := netsim.SimHopCount()
			runtime.ReadMemStats(&ms1)
			walls[it] = wall.Nanoseconds()
			allocs[it] = ms1.Mallocs - ms0.Mallocs
			allocBytes[it] = ms1.TotalAlloc - ms0.TotalAlloc
			if held := ms1.HeapSys - ms1.HeapReleased; held > heapPeak {
				heapPeak = held
			}
			// Deterministic per repetition, so recording the last
			// repetition's counts records every repetition's.
			r = BenchResult{
				ID:        e.ID,
				Name:      e.Name,
				Quick:     cfg.Quick,
				Count:     count,
				SimEvents: ev1 - ev0,
				NetHops:   hp1 - hp0,
				Rows:      len(tab.Rows),
			}
		}
		r.WallNanos = medianInt64(walls)
		r.Allocs = medianUint64(allocs)
		r.AllocBytes = medianUint64(allocBytes)
		if r.WallNanos > 0 {
			sec := float64(r.WallNanos) / 1e9
			r.EventsPerSec = float64(r.SimEvents) / sec
			r.HopsPerSec = float64(r.NetHops) / sec
		}
		if p := e.RunProcs(cfg); p > 0 {
			r.Procs = p
			r.BytesPerProc = float64(r.AllocBytes) / float64(p)
			r.HeapSysPeak = heapPeak
		}
		rep.TotalWallNanos += r.WallNanos
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

// medianInt64 returns the median of xs (lower middle for even counts,
// so the value is always an observed sample). xs is scratch and gets
// reordered.
func medianInt64(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[(len(xs)-1)/2]
}

func medianUint64(xs []uint64) uint64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[(len(xs)-1)/2]
}

// MergeReports folds the results of next into base: results sharing an
// experiment ID are replaced by next's measurement (the last
// occurrence when next carries duplicates), new IDs are appended once
// in next's order, and everything else of base — including results
// next did not re-run — is kept. TotalWallNanos is recomputed over the
// merged rows. The header metadata (Go version, timestamp, quick,
// repetition count) comes from next, the run that actually produced the
// fresh numbers; every row keeps its own Quick and Count, so rows kept
// from base still say how they were measured.
// It lets any subset run — a single -experiment, the -scale suite —
// extend the checked-in BENCH_logp.json without discarding the other
// rows.
//
// Replacement is whole-row: the new row wins field by field, including
// fields it leaves at their zero value. If a re-run of an ID no longer
// reports Procs/BytesPerProc/HeapSysPeak (say the experiment lost its
// scale classification), the merged row carries zeros rather than
// resurrecting the stale figures from base — stale per-proc numbers
// silently surviving a merge would corrupt every later -benchdiff.
// TestMergeReportsNewRowWins pins this.
func MergeReports(base, next *BenchReport) *BenchReport {
	merged := *next
	merged.Results = nil
	replaced := make(map[string]BenchResult, len(next.Results))
	for _, r := range next.Results {
		replaced[r.ID] = r
	}
	merged.TotalWallNanos = 0
	for _, r := range base.Results {
		if nr, ok := replaced[r.ID]; ok {
			r = nr
			delete(replaced, r.ID)
		}
		merged.Results = append(merged.Results, r)
		merged.TotalWallNanos += r.WallNanos
	}
	for _, r := range next.Results {
		// Consume the map entry so an ID duplicated in next is
		// appended once (its last occurrence), not once per occurrence.
		if nr, ok := replaced[r.ID]; ok {
			delete(replaced, r.ID)
			merged.Results = append(merged.Results, nr)
			merged.TotalWallNanos += nr.WallNanos
		}
	}
	return &merged
}

// ReadJSON loads a report previously written by WriteJSON.
func ReadJSON(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// WriteJSON writes the report to path, pretty-printed.
func (r *BenchReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render summarizes the report as an aligned table for the CLI.
func (r *BenchReport) Render() string {
	scale := false
	for _, b := range r.Results {
		if b.Procs > 0 {
			scale = true
			break
		}
	}
	t := &Table{
		ID:      "BENCH",
		Title:   fmt.Sprintf("benchmark (%s %s/%s, quick=%v, seed=%d, median of %d)", r.GoVersion, r.GOOS, r.GOARCH, r.Quick, r.Seed, r.Count),
		Columns: []string{"id", "wall-ms", "sim-events", "events/sec", "net-hops", "hops/sec", "allocs", "alloc-MB"},
	}
	if scale {
		t.Columns = append(t.Columns, "procs", "bytes/proc", "heapSys-MB")
	}
	for _, b := range r.Results {
		row := []interface{}{b.ID,
			float64(b.WallNanos) / 1e6,
			b.SimEvents,
			b.EventsPerSec,
			b.NetHops,
			b.HopsPerSec,
			b.Allocs,
			float64(b.AllocBytes) / (1 << 20)}
		if scale {
			row = append(row, b.Procs, b.BytesPerProc, float64(b.HeapSysPeak)/(1<<20))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total wall time %v", time.Duration(r.TotalWallNanos).Round(time.Millisecond)))
	return t.Render()
}
