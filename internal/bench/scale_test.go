package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/logp"
	"repro/internal/relation"
	"repro/internal/stats"
)

// The scale workloads must be meaningless as a performance story unless
// the sparse engine they run on is exactly the dense engine: these
// tests pin the four scale scripts to the coroutine oracle at moderate
// p and lock the rendered tables as goldens.

func scaleWorkloads(p int) []struct {
	name string
	mk   func() logp.Script
} {
	lp := scaleLogP(p)
	d := collective.TreeArity(lp)
	w := int(lp.Capacity())
	return []struct {
		name string
		mk   func() logp.Script
	}{
		{"ring", func() logp.Script { return newScaleRingScript(p, 2) }},
		{"bcast", func() logp.Script { return newScaleBcastScript(p) }},
		{"barrier", func() logp.Script { return newScaleBarrierScript(p, d) }},
		{"route-h1", func() logp.Script { return newScaleRouteScript(p, 1, w) }},
		{"route-h8", func() logp.Script { return newScaleRouteScript(p, 8, w) }},
		// E16's randomized relation; the stream redraws identically per
		// mk() call, so every engine form routes the same permutations.
		{"rand-h4", func() logp.Script {
			rel := &relation.RandomRegularStream{}
			rel.Reset(stats.NewRNG(7), p, 4)
			return newScaleRandScript(rel, scaleRandWindow)
		}},
	}
}

// TestScaleScriptsMatchDenseOracle proves the byte-identity contract
// on the exact workloads the E14/E15 tables are built from: at
// p ∈ {16, 128, 1024} every scale script produces, on the sparse
// engine, bit-for-bit the logp.Result of the dense coroutine oracle
// Run(ScriptAsProgram).
func TestScaleScriptsMatchDenseOracle(t *testing.T) {
	for _, p := range []int{16, 128, 1024} {
		lp := scaleLogP(p)
		for _, w := range scaleWorkloads(p) {
			t.Run(fmt.Sprintf("%s/p=%d", w.name, p), func(t *testing.T) {
				dense, err := logp.NewMachine(lp).Run(logp.ScriptAsProgram(w.mk()))
				if err != nil {
					t.Fatal(err)
				}
				sparse, err := logp.NewMachine(lp).RunScript(w.mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dense, sparse) {
					t.Fatalf("Result mismatch:\ndense  %+v\nsparse %+v", dense, sparse)
				}
			})
		}
	}
}

// TestScaleGoldenTables locks the rendered E14/E15 tables at a moderate
// processor count. The tables are pure functions of the simulation, so
// any divergence means the sparse engines changed observable behaviour.
func TestScaleGoldenTables(t *testing.T) {
	const p = 1024
	for _, tc := range []struct {
		id  string
		run func(Config) *Table
	}{
		{"E14", E14Scale(p)},
		{"E15", E15Scale(p)},
		{"E16", E16Scale(p)},
		{"E17", E17Scale(p)},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			got := tc.run(Config{Seed: 1}).Render()
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s_p1k.txt", tc.id))
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden table (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s scale table diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", tc.id, got, want)
			}
		})
	}
}

// TestScaleBcastIsSparse pins the laziness the broadcast workload is
// designed around: only processor 0 is active up front, so the engine
// must never materialize more live processors than the broadcast
// frontier plus the recycled pool allows. The proxy observable here is
// that the run completes with exactly p-1 messages and that every
// processor's finish time is recorded (the Result still spans all p).
func TestScaleBcastIsSparse(t *testing.T) {
	const p = 4096
	lp := scaleLogP(p)
	res, err := logp.NewMachine(lp).RunScript(newScaleBcastScript(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != p-1 {
		t.Fatalf("broadcast sent %d messages, want %d", res.MessagesSent, p-1)
	}
	if len(res.ProcTimes) != p {
		t.Fatalf("ProcTimes spans %d processors, want %d", len(res.ProcTimes), p)
	}
}

// TestScaleRegistry checks the scale registry is wired into Lookup and
// carries the processor counts -bench normalizes by.
func TestScaleRegistry(t *testing.T) {
	exps := Scale()
	if len(exps) != 11 {
		t.Fatalf("Scale() has %d entries, want 11", len(exps))
	}
	for _, e := range exps {
		if e.Procs <= 0 {
			t.Errorf("%s: Procs = %d, want > 0", e.ID, e.Procs)
		}
		got, ok := Lookup(e.ID)
		if !ok {
			t.Errorf("Lookup(%q) failed", e.ID)
			continue
		}
		if got.ID != e.ID || got.Procs != e.Procs {
			t.Errorf("Lookup(%q) = {ID:%s Procs:%d}, want {ID:%s Procs:%d}", e.ID, got.ID, got.Procs, e.ID, e.Procs)
		}
		if !strings.HasPrefix(e.ID, "E14.") && !strings.HasPrefix(e.ID, "E15.") &&
			!strings.HasPrefix(e.ID, "E16.") && !strings.HasPrefix(e.ID, "E17.") {
			t.Errorf("unexpected scale id %q", e.ID)
		}
	}
	// The regular suite must stay untouched by the scale registry.
	for _, e := range All() {
		if e.Procs != 0 {
			t.Errorf("regular experiment %s has Procs = %d, want 0", e.ID, e.Procs)
		}
	}
}

// TestMergeReports covers the -scale -bench merge path: same-ID rows
// replaced in place, new rows appended, untouched rows kept, metadata
// and total from the fresh run.
func TestMergeReports(t *testing.T) {
	base := &BenchReport{
		GoVersion: "go0.base", Count: 5,
		Results: []BenchResult{
			{ID: "E2", WallNanos: 100},
			{ID: "E14.p10k", WallNanos: 200, Procs: 10_000},
			{ID: "E3", WallNanos: 300},
		},
	}
	next := &BenchReport{
		GoVersion: "go0.next", Count: 1,
		Results: []BenchResult{
			{ID: "E14.p10k", WallNanos: 50, Procs: 10_000, BytesPerProc: 12},
			{ID: "E15.p10k", WallNanos: 60, Procs: 10_000, BytesPerProc: 34},
		},
	}
	m := MergeReports(base, next)
	if m.GoVersion != "go0.next" || m.Count != 1 {
		t.Fatalf("metadata not taken from next: %+v", m)
	}
	ids := make([]string, len(m.Results))
	for i, r := range m.Results {
		ids[i] = r.ID
	}
	want := []string{"E2", "E14.p10k", "E3", "E15.p10k"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("merged order %v, want %v", ids, want)
	}
	if m.Results[1].WallNanos != 50 || m.Results[1].BytesPerProc != 12 {
		t.Fatalf("E14.p10k not replaced by next's row: %+v", m.Results[1])
	}
	if total := int64(100 + 50 + 300 + 60); m.TotalWallNanos != total {
		t.Fatalf("TotalWallNanos = %d, want %d", m.TotalWallNanos, total)
	}
}

// TestMergeReportsNewRowWins pins the whole-row replacement rule: a
// re-run row replaces the base row field by field, including fields it
// leaves at zero, so stale Procs/BytesPerProc/HeapSysPeak figures can
// never survive a merge and leak into later -benchdiff comparisons.
func TestMergeReportsNewRowWins(t *testing.T) {
	base := &BenchReport{Results: []BenchResult{
		{ID: "E14.p10k", WallNanos: 200, Allocs: 7, Procs: 10_000, BytesPerProc: 99.5, HeapSysPeak: 1 << 30},
	}}
	next := &BenchReport{Results: []BenchResult{
		{ID: "E14.p10k", WallNanos: 50},
	}}
	m := MergeReports(base, next)
	if len(m.Results) != 1 {
		t.Fatalf("merged %d rows, want 1", len(m.Results))
	}
	got := m.Results[0]
	if got.WallNanos != 50 || got.Allocs != 0 {
		t.Fatalf("base measurement fields survived the merge: %+v", got)
	}
	if got.Procs != 0 || got.BytesPerProc != 0 || got.HeapSysPeak != 0 {
		t.Fatalf("stale scale fields survived the merge: %+v", got)
	}
}

// TestScaleWarmMatchesCold pins the Warm contract on the scale tables:
// a warm config — including the second fetch, which reuses and reseeds
// a pooled machine — renders byte-identical tables to a cold run.
// DeliverRandom makes E16 the sharp case: reseeding must restart the
// machine's run counter or the second warm run samples a different
// admissible execution.
func TestScaleWarmMatchesCold(t *testing.T) {
	const p = 256
	for _, tc := range []struct {
		id  string
		run func(Config) *Table
	}{
		{"E14", E14Scale(p)},
		{"E15", E15Scale(p)},
		{"E16", E16Scale(p)},
		{"E17", E17Scale(p)},
	} {
		cold := tc.run(Config{Seed: 1}).Render()
		cfg := Config{Seed: 1, Warm: NewWarm()}
		if first := tc.run(cfg).Render(); first != cold {
			t.Errorf("%s: first warm run diverged from cold:\n--- warm ---\n%s\n--- cold ---\n%s", tc.id, first, cold)
		}
		if second := tc.run(cfg).Render(); second != cold {
			t.Errorf("%s: second (pooled) warm run diverged from cold:\n--- warm ---\n%s\n--- cold ---\n%s", tc.id, second, cold)
		}
	}
}
